package repro.core.nn

import org.apache.spark.sql.DataFrame
import repro.data.Store

/** Algorithm M-NN: join S and R, **materialize** T on disk, train reading T
  * back every epoch. T's scan is planned once per run; every pass re-reads
  * its files. Materialization cost is part of training.
  */
object MNn {

  /** S ⋈ R, the case q = 1 of [[trainMulti]]; kept for perfbench and the specs (ROADMAP item 3). */
  def train(store: Store, s: DataFrame, r: DataFrame, init: NnModel, epochs: Int,
            lr: Double, tableName: String = "T_mnn"): NnFit =
    trainMulti(store, s, Seq(r), init, epochs, lr, tableName)

  def trainMulti(store: Store, s: DataFrame, rs: Seq[DataFrame], init: NnModel, epochs: Int,
                 lr: Double, tableName: String = "T_mnn_multi"): NnFit = {
    val rows = DenormNn.rows(store.write(tableName, SNn.joinedMulti(s, rs)))
    DenormNn.train(() => rows, init, epochs, lr)
  }
}
