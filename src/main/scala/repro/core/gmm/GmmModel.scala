package repro.core.gmm

import repro.linalg.{Chol, Mat}

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
  * from the current model on the driver: the Cholesky factor of each Σ_k,
  * with which a task evaluates (x−μ_k)ᵀ Σ_k⁻¹ (x−μ_k) = ‖L_k⁻¹(x−μ_k)‖²,
  * and the constant part of the log density, log π_k − ½(d·log 2π +
  * log|Σ_k|) (paper Eq. 1–2: feature vectors "are not directly involved" in
  * this part). F-GMM builds its cache from the model with its features
  * reordered, so the same factor also gives it the paper's block terms.
  */
final case class GmmComponentCache(chol: Array[Chol], logConst: Array[Double]) extends Serializable

object GmmComponentCache {
  val Ridge = 1e-9 // tiny SPD regularization applied identically everywhere

  def apply(model: GmmModel): GmmComponentCache = {
    val chol = model.covs.map(Chol.regularized(_, Ridge))
    val logConst = Array.tabulate(model.k)(k => math.log(model.weights(k)) -
      0.5 * (model.d * math.log(2.0 * math.Pi) + chol(k).logDet))
    GmmComponentCache(chol, logConst)
  }
}

/** Shared E-step arithmetic: responsibilities from per-component quadratic
  * forms, via log-sum-exp for numerical stability.
  */
object GmmMath {

  /** The M-step divides by N_k = Σ_n γ_k: a component whose responsibility
    * underflowed to 0 on every row has no defined mean or covariance, so
    * M, S and F all stop here, on the driver, naming it.
    */
  def requireMass(nk: Array[Double]): Unit = {
    var i = 0
    while (i < nk.length) {
      require(nk(i) > 0.0, s"GMM component $i is empty: N_k = ${nk(i)} (every responsibility is 0)")
      i += 1
    }
  }

  /** Given quad(k) = (x−μ_k)ᵀ Σ_k⁻¹ (x−μ_k) and the cache's log-constants,
    * fill `gamma` with responsibilities and return this point's
    * log-likelihood contribution ln Σ_k π_k N(x | μ_k, Σ_k).
    *
    * A responsibility below the smallest normal double (≈ 2.2e−308) is
    * flushed to 0: it would add nothing visible to any sum, and each
    * subnormal product it fed into the M-step sums would cost about as much
    * as 100 normal ones on x86.
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
    while (i < k) {
      gamma(i) /= z
      if (gamma(i) < java.lang.Double.MIN_NORMAL) gamma(i) = 0.0
      i += 1
    }
    m + math.log(z)
  }
}
