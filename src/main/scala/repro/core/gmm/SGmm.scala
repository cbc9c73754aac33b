package repro.core.gmm

import org.apache.spark.sql.DataFrame
import repro.core.{RRel, joined}

/** Algorithm S-GMM: compute the join **on the fly** every iteration without
  * materializing T — the lazy join DataFrame is re-executed by each EM
  * pass's action, which is Spark's equivalent of the paper's batch-probe
  * loop. Computation is identical to M-GMM (same denormalized EM).
  */
object SGmm {

  def train(s: DataFrame, r: DataFrame, init: GmmModel, iters: Int): GmmFit =
    trainMulti(RRel.binary(s), Seq(r), init, iters)

  /** The multi-way projected equi-join T(sid, [X_S X_R1 … X_Rq]) with all
    * R-side features in a single `xr` block (offsets are positional,
    * paper §IV).
    */
  def joinedMulti(s: DataFrame, rs: Seq[DataFrame]): DataFrame = joined(s, rs, Nil)

  /** Plans the join again for every iteration. One planned RDD reused
    * across iterations would keep its shuffle dependencies, so every pass
    * after the first would read the first pass's shuffle files: the join
    * would run once, not on the fly.
    */
  def trainMulti(s: DataFrame, rs: Seq[DataFrame], init: GmmModel, iters: Int): GmmFit = {
    val t = joinedMulti(s, rs)
    DenormGmm.train(() => DenormGmm.rows(t), init, iters)
  }
}
