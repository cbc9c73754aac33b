package repro.linalg

/** Cholesky factorization of a symmetric positive-definite matrix, used to
  * evaluate GMM quadratic forms and compute log-determinants.
  *
  * `A = L Lᵀ` with L lower-triangular. Throws `IllegalArgumentException`
  * when A is not (numerically) SPD — callers regularize Σ with a ridge
  * before factorizing.
  *
  * The factor is kept as Lᵀ, row-major (`ut(j·n + i) = L(i, j)` for i ≥ j,
  * zero below the diagonal), with the reciprocal pivots 1/L(j, j) in `rd`:
  * column j of L is then the contiguous row j of `ut`, so the forward
  * substitution runs contiguous inner loops.
  */
final class Chol private (val n: Int, private[linalg] val ut: Array[Double],
                          private[linalg] val rd: Array[Double]) extends Serializable {

  /** log|A| = 2 Σ log L(i,i). */
  def logDet: Double = {
    var s = 0.0; var i = 0
    while (i < n) { s += math.log(ut(i * n + i)); i += 1 }
    2.0 * s
  }

  /** Columns [from, until) of the forward substitution `y = L⁻¹ z`, in place
    * and column-oriented, taking z(0 until from) as 0: y_j is written to
    * z(j) for j in [from, until), and z(until until n) is left holding the
    * right-hand side the later rows still have to solve for, i.e. each
    * z(i) less Σ_j L(i, j)·y_j. Returns Σ y_j² over the columns run.
    *
    * One call over [0, n) gives ‖L⁻¹ z‖²; calls over [0, m) and then
    * [m, n) give the same y and the same sum split in two.
    */
  def forward(z: Array[Double], from: Int, until: Int): Double = {
    var s = 0.0; var j = from
    while (j < until) {
      val yj = z(j) * rd(j)
      z(j) = yj
      s += yj * yj
      val off = j * n; var i = j + 1
      while (i < n) { z(i) -= ut(off + i) * yj; i += 1 }
      j += 1
    }
    s
  }

  /** The quadratic form `pdᵀ A⁻¹ pd = ‖L⁻¹ pd‖²`, with one forward
    * substitution (n²/2 multiply-adds) in `scratch` (length ≥ n, overwritten).
    * `pd` is not modified.
    */
  def quadInv(pd: Array[Double], scratch: Array[Double]): Double = {
    require(pd.length == n && scratch.length >= n, s"quadInv: $n vs ${pd.length} / ${scratch.length}")
    System.arraycopy(pd, 0, scratch, 0, n)
    forward(scratch, 0, n)
  }
}

object Chol {

  /** Factorize SPD `a`; throws if a pivot is non-positive. */
  def apply(m: Mat): Chol = {
    require(m.rows == m.cols, "Cholesky needs a square matrix")
    val n = m.rows
    val l = Mat.zeros(n, n)
    var i = 0
    while (i < n) {
      var j = 0
      while (j <= i) {
        var s = m(i, j)
        var k = 0
        while (k < j) { s -= l(i, k) * l(j, k); k += 1 }
        if (i == j) {
          require(s > 0.0, s"matrix not positive definite at pivot $i (got $s)")
          l(i, i) = math.sqrt(s)
        } else {
          l(i, j) = s / l(j, j)
        }
        j += 1
      }
      i += 1
    }
    new Chol(n, l.transpose.a, Array.tabulate(n)(j => 1.0 / l(j, j)))
  }

  /** Factorize `a + ridge*I` — the standard EM covariance regularization. */
  def regularized(m: Mat, ridge: Double): Chol = {
    val r = m.copy
    var i = 0
    while (i < r.rows) { r(i, i) += ridge; i += 1 }
    apply(r)
  }
}
