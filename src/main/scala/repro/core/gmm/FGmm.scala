package repro.core.gmm

import org.apache.spark.sql.DataFrame
import repro.core.RRel

/** Algorithm F-GMM for binary joins S ⋈ R (paper §V-B): the q = 1 case of
  * [[FGmmMulti]], with S's FK column `fk` renamed to `fk1`. Per iteration
  * the R side is precomputed once per R tuple, one pass aggregates S alone,
  * and the R-side M-step blocks are finished with one kernel per R tuple
  * (UR in the tasks, Σ γ x_r and LR on the driver).
  * The decomposition is exact — models match M-GMM/S-GMM to fp roundoff.
  */
object FGmm {

  /** One factorized EM iteration.
    *
    * @param s      entity table S(sid, fk, xs)
    * @param rRows  collected attribute table R — (rid, xr), nR ≪ nS
    */
  def emStep(s: DataFrame, rRows: Array[(Long, Array[Double])], model: GmmModel,
             dS: Int, dR: Int): (GmmModel, Double) = {
    require(model.d == dS + dR, s"model d=${model.d} != $dS + $dR")
    FGmmMulti.emStep(RRel.binary(s), Seq(rRows), model, dS)
  }

  /** Collect and broadcast R once (nR ≪ nS by the paper's setup) and run
    * `iters` factorized EM iterations.
    */
  def train(s: DataFrame, r: DataFrame, init: GmmModel, iters: Int): GmmFit =
    FGmmMulti.train(RRel.binary(s), Seq(r), init, iters)
}
