package repro.core.gmm

import org.apache.spark.sql.DataFrame
import repro.core.RRel
import repro.data.Store

/** Algorithm M-GMM (paper Alg. 1): join S and R, **materialize** T in the
  * database (here: Parquet via [[Store]]), then run EM reading T back from
  * disk every iteration. T's scan is planned once per run; every pass
  * re-reads its files. The materialization cost is part of training.
  */
object MGmm {

  def train(store: Store, s: DataFrame, r: DataFrame, init: GmmModel, iters: Int,
            tableName: String = "T_mgmm"): GmmFit =
    trainMulti(store, RRel.binary(s), Seq(r), init, iters, tableName)

  /** Multi-way variant: materialize S ⋈ R1 ⋈ … ⋈ Rq. */
  def trainMulti(store: Store, s: DataFrame, rs: Seq[DataFrame], init: GmmModel, iters: Int,
                 tableName: String = "T_mgmm_multi"): GmmFit = {
    val rows = DenormGmm.rows(store.write(tableName, SGmm.joinedMulti(s, rs)))
    DenormGmm.train(() => rows, init, iters)
  }
}
