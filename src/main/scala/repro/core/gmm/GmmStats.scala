package repro.core.gmm

import repro.core.{requireFinite, requireJoined}
import repro.linalg.{Mat, Vec}

/** Fused E+M sufficient statistics for one EM iteration:
  * N, Σ_n γ_k (=N_k), Σ_n γ_k x, Σ_n γ_k x xᵀ and the log-likelihood of the
  * *pre-update* model. The M-step then reads
  * μ_k = (Σ γ x)/N_k and Σ_k = (Σ γ x xᵀ)/N_k − μ_k μ_kᵀ, which equals the
  * paper's Eq. (4) evaluated at the new mean (see DESIGN.md §2).
  *
  * One accumulator per partition, merged in partition order. `sxx` holds only
  * its upper triangle; [[toModel]] mirrors a scaled copy.
  */
final class GmmAccum(val k: Int, val d: Int) extends Serializable {
  var n: Long = 0L
  var loglik: Double = 0.0
  val nk: Array[Double] = new Array[Double](k)
  val sx: Array[Array[Double]] = Array.fill(k)(new Array[Double](d))
  val sxx: Array[Mat] = Array.fill(k)(Mat.zeros(d, d))

  /** Fold in one data point with responsibilities `gamma` and its loglik. */
  def add(x: Array[Double], gamma: Array[Double], ll: Double): Unit = {
    n += 1; loglik += ll
    var i = 0
    while (i < k) {
      val g = gamma(i)
      if (g != 0.0) { // a γ that underflowed to 0 adds nothing to the sums
        nk(i) += g
        Vec.axpy(g, x, sx(i))
        sxx(i).addOuterUpper(g, x)
      }
      i += 1
    }
  }

  def merge(o: GmmAccum): GmmAccum = {
    require(o.k == k && o.d == d)
    n += o.n; loglik += o.loglik
    var i = 0
    while (i < k) {
      nk(i) += o.nk(i)
      Vec.addInPlace(sx(i), o.sx(i))
      sxx(i).addInPlace(o.sxx(i))
      i += 1
    }
    this
  }

  /** M-step: turn the sums into the next model. M, S and F all end here. */
  def toModel: GmmModel = {
    requireJoined(n)
    requireFinite(Seq(Array(loglik), nk) ++ sx ++ sxx.map(_.a): _*)
    GmmMath.requireMass(nk)
    val weights = new Array[Double](k)
    val means   = new Array[Array[Double]](k)
    val covs    = new Array[Mat](k)
    var i = 0
    while (i < k) {
      weights(i) = nk(i) / n
      means(i)   = Vec.scale(1.0 / nk(i), sx(i))
      val c = sxx(i).scaled(1.0 / nk(i))
      c.mirrorUpper()
      c.addOuter(-1.0, means(i), means(i))
      c.symmetrize()
      covs(i) = c
      i += 1
    }
    GmmModel(weights, means, covs)
  }
}
