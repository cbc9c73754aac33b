package repro.core.gmm

import org.apache.spark.sql.DataFrame
import repro.core.joined

/** Algorithm S-GMM: compute the join **on the fly** every iteration without
  * materializing T — the join, planned once, is executed again by each EM
  * pass, which is Spark's equivalent of the paper's batch-probe loop.
  * Computation is identical to M-GMM (same denormalized EM).
  */
object SGmm {

  /** S ⋈ R, the case q = 1 of [[trainMulti]]; kept for perfbench and the specs (ROADMAP item 3). */
  def train(s: DataFrame, r: DataFrame, init: GmmModel, iters: Int): GmmFit =
    trainMulti(s, Seq(r), init, iters)

  /** The multi-way projected equi-join T(sid, [X_S X_R1 … X_Rq]) with all
    * R-side features in a single `xr` block (offsets are positional,
    * paper §IV).
    */
  def joinedMulti(s: DataFrame, rs: Seq[DataFrame]): DataFrame = joined(s, rs, Nil)

  /** Plans the join once and runs it again in every iteration: each pass
    * reads S's and every R's files and shuffles them again, into new
    * shuffle files. One planned RDD reused across iterations would keep its
    * shuffle dependencies, so every pass after the first would read the
    * first pass's shuffle files and the join would run once, not on the
    * fly; each pass therefore runs a copy of the plan with new exchanges.
    */
  def trainMulti(s: DataFrame, rs: Seq[DataFrame], init: GmmModel, iters: Int): GmmFit =
    DenormGmm.train(DenormGmm.joins(joinedMulti(s, rs)), init, iters)
}
