package repro.core.gmm

import repro.linalg.{Chol, Mat, Vec}

/** Full-covariance Gaussian Mixture Model parameters (paper §III-A).
  *
  * @param weights mixing coefficients π_k (sum to 1)
  * @param means   component means μ_k, each of length d
  * @param covs    component covariances Σ_k, each d×d SPD
  */
final case class GmmModel(weights: Array[Double], means: Array[Array[Double]], covs: Array[Mat])
    extends Serializable {
  val k: Int = weights.length
  val d: Int = means.head.length
  require(means.length == k && covs.length == k, "component count mismatch")
  require(means.forall(_.length == d) && covs.forall(c => c.rows == d && c.cols == d),
          "dimension mismatch")

  def maxAbsDiff(other: GmmModel): Double = {
    require(other.k == k && other.d == d)
    val w = Vec.maxAbsDiff(weights, other.weights)
    val m = (0 until k).map(i => Vec.maxAbsDiff(means(i), other.means(i))).max
    val c = (0 until k).map(i => covs(i).maxAbsDiff(other.covs(i))).max
    math.max(w, math.max(m, c))
  }
}

object GmmModel {

  /** Deterministic initialization: means drawn from N(0, 2²) with a fixed
    * seed, unit covariances, uniform weights. All three algorithms (M/S/F)
    * must start from the *same* init for the exact-equivalence guarantee.
    */
  def init(k: Int, d: Int, seed: Long): GmmModel = {
    val rnd = new scala.util.Random(seed)
    GmmModel(
      weights = Array.fill(k)(1.0 / k),
      means   = Array.fill(k)(Array.fill(d)(rnd.nextGaussian() * 2.0)),
      covs    = Array.fill(k)(Mat.eye(d)),
    )
  }
}

/** Per-component quantities the E-step needs, computed once per iteration
  * from the current model on the driver and shipped in the task closure:
  * the precision matrix I_k = Σ_k⁻¹ and the constant part of the log
  * density, log π_k − ½(d·log 2π + log|Σ_k|) (paper Eq. 1–2: feature
  * vectors "are not directly involved" in this part).
  */
final case class GmmComponentCache(inv: Array[Mat], logConst: Array[Double]) extends Serializable

object GmmComponentCache {
  val Ridge = 1e-9 // tiny SPD regularization applied identically everywhere

  def apply(model: GmmModel): GmmComponentCache = {
    val inv = new Array[Mat](model.k)
    val logConst = new Array[Double](model.k)
    var k = 0
    while (k < model.k) {
      val ch = Chol.regularized(model.covs(k), Ridge)
      inv(k) = ch.inverse
      logConst(k) = math.log(model.weights(k)) -
        0.5 * (model.d * math.log(2.0 * math.Pi) + ch.logDet)
      k += 1
    }
    GmmComponentCache(inv, logConst)
  }
}

/** Shared E-step arithmetic: responsibilities from per-component quadratic
  * forms, via log-sum-exp for numerical stability.
  */
object GmmMath {

  /** Given quad(k) = (x−μ_k)ᵀ I_k (x−μ_k) and the cached log-constants,
    * fill `gamma` with responsibilities and return this point's
    * log-likelihood contribution ln Σ_k π_k N(x | μ_k, Σ_k).
    */
  def responsibilities(cache: GmmComponentCache, quad: Array[Double],
                       gamma: Array[Double]): Double =
    responsibilities(cache.logConst, quad, gamma)

  /** [[responsibilities]] from the log-constants alone — all a task needs of
    * the cache, so a closure need not ship the d×d precision matrices.
    */
  def responsibilities(logConst: Array[Double], quad: Array[Double],
                       gamma: Array[Double]): Double = {
    val k = quad.length
    var m = Double.NegativeInfinity
    var i = 0
    while (i < k) { gamma(i) = logConst(i) - 0.5 * quad(i); if (gamma(i) > m) m = gamma(i); i += 1 }
    var z = 0.0
    i = 0
    while (i < k) { gamma(i) = math.exp(gamma(i) - m); z += gamma(i); i += 1 }
    i = 0
    while (i < k) { gamma(i) /= z; i += 1 }
    m + math.log(z)
  }
}
