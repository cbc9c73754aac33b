package repro.linalg

import repro.core.gmm.{GmmComponentCache, GmmModel}
import repro.core.nn.NnModel

/** Kernels only the specs call: reference implementations (`mm`, `outer`,
  * the explicit factor L, the dense inverse Σ⁻¹ and its quadratic and
  * bilinear forms, a one-row forward pass), comparisons and fixture
  * builders that the trainers never need. `import repro.linalg.TestKernels._`
  * makes them read as members of `Mat`, `Vec`, `Chol`, `GmmModel`,
  * `GmmComponentCache` and `NnModel`.
  */
object TestKernels {

  implicit final class MatCompanionOps(private val m: Mat.type) extends AnyVal {
    /** Build from a row-of-rows literal. */
    def fromRows(rs: Seq[Seq[Double]]): Mat = {
      val r = rs.length; val c = rs.head.length
      require(rs.forall(_.length == c), "ragged rows")
      new Mat(r, c, rs.flatten.toArray)
    }

    /** Outer product `x yᵀ` as a fresh matrix. */
    def outer(x: Array[Double], y: Array[Double]): Mat = {
      val out = Mat.zeros(x.length, y.length)
      out.addOuter(1.0, x, y)
      out
    }
  }

  implicit final class MatOps(private val m: Mat) extends AnyVal {
    /** Matrix–vector product `m * x`. */
    def mv(x: Array[Double]): Array[Double] = {
      require(x.length == m.cols, s"mv: ${m.cols} vs ${x.length}")
      val out = new Array[Double](m.rows)
      m.mvInto(x, 0, out, 0)
      out
    }

    /** Matrix–matrix product `m * other`. */
    def mm(other: Mat): Mat = {
      require(m.cols == other.rows, s"mm: ${m.cols} vs ${other.rows}")
      val out = Mat.zeros(m.rows, other.cols)
      for (i <- 0 until m.rows; k <- 0 until m.cols; j <- 0 until other.cols)
        out(i, j) += m(i, k) * other(k, j)
      out
    }

    /** Fresh `m - other`. */
    def minus(other: Mat): Mat = {
      require(m.rows == other.rows && m.cols == other.cols)
      new Mat(m.rows, m.cols, Vec.sub(m.a, other.a))
    }

    /** Quadratic form `xᵀ * m * x` (square matrices). */
    def quadForm(x: Array[Double]): Double = bilinear(x, x)

    /** Bilinear form `xᵀ * m * y` where x has `rows` entries and y `cols`. */
    def bilinear(x: Array[Double], y: Array[Double]): Double = {
      require(x.length == m.rows && y.length == m.cols,
        s"bilinear: ${m.rows} x ${m.cols} vs ${x.length}, ${y.length}")
      var s = 0.0; var i = 0
      while (i < m.rows) {
        val xi = x(i); val off = i * m.cols; var j = 0
        var ri = 0.0
        while (j < m.cols) { ri += m.a(off + j) * y(j); j += 1 }
        s += xi * ri; i += 1
      }
      s
    }

    def maxAbsDiff(other: Mat): Double = Vec.maxAbsDiff(m.a, other.a)
  }

  implicit final class VecOps(private val v: Vec.type) extends AnyVal {
    /** Element-wise `a - b` into a fresh array. */
    def sub(a: Array[Double], b: Array[Double]): Array[Double] = {
      require(a.length == b.length, s"sub: ${a.length} vs ${b.length}")
      Array.tabulate(a.length)(i => a(i) - b(i))
    }

    /** Concatenate vectors in order. */
    def concat(parts: Array[Double]*): Array[Double] = parts.flatten.toArray

    /** Dot product of `a` and `b` (lengths must match). */
    def dot(a: Array[Double], b: Array[Double]): Double = {
      require(a.length == b.length, s"dot: ${a.length} vs ${b.length}")
      Vec.dot(a, 0, b, 0, a.length)
    }

    /** Slice `x(from until until)` into a fresh array. */
    def slice(x: Array[Double], from: Int, until: Int): Array[Double] =
      java.util.Arrays.copyOfRange(x, from, until)

    /** Max |a(i) - b(i)|. */
    def maxAbsDiff(a: Array[Double], b: Array[Double]): Double = {
      require(a.length == b.length)
      var m = 0.0; var i = 0
      while (i < a.length) { m = math.max(m, math.abs(a(i) - b(i))); i += 1 }
      m
    }
  }

  implicit final class CholOps(private val c: Chol) extends AnyVal {
    /** Lower-triangular factor L (copy). */
    def lower: Mat = new Mat(c.n, c.n, c.ut).transpose

    /** Solve `A x = b` via forward + backward substitution. */
    def solve(b: Array[Double]): Array[Double] = {
      val n = c.n; val ut = c.ut; val rd = c.rd
      require(b.length == n)
      val x = b.clone()
      c.forward(x, 0, n) // x = y = L⁻¹ b
      // backward: Lᵀ x = y, reading row i of Lᵀ
      var i = n - 1
      while (i >= 0) {
        var s = x(i); val off = i * n; var j = i + 1
        while (j < n) { s -= ut(off + j) * x(j); j += 1 }
        x(i) = s * rd(i); i -= 1
      }
      x
    }

    /** Dense inverse A⁻¹ (symmetric). Column-by-column solve of the identity. */
    def inverse: Mat = {
      val n = c.n
      val inv = Mat.zeros(n, n)
      val e = new Array[Double](n)
      var j = 0
      while (j < n) {
        e(j) = 1.0
        val col = solve(e)
        e(j) = 0.0
        var i = 0
        while (i < n) { inv(i, j) = col(i); i += 1 }
        j += 1
      }
      inv.symmetrize()
      inv
    }
  }

  implicit final class GmmModelOps(private val m: GmmModel) extends AnyVal {
    def maxAbsDiff(other: GmmModel): Double = {
      require(other.k == m.k && other.d == m.d)
      val w = Vec.maxAbsDiff(m.weights, other.weights)
      val mu = (0 until m.k).map(i => Vec.maxAbsDiff(m.means(i), other.means(i))).max
      val c = (0 until m.k).map(i => m.covs(i).maxAbsDiff(other.covs(i))).max
      math.max(w, math.max(mu, c))
    }

    /** Every parameter, for comparisons bit for bit. */
    def params: Seq[Double] = (Seq(m.weights) ++ m.means ++ m.covs.map(_.a)).flatMap(_.toSeq)
  }

  implicit final class GmmComponentCacheOps(private val c: GmmComponentCache) extends AnyVal {
    /** The precision matrices I_k = Σ_k⁻¹ (ridge included), from the factors. */
    def inv: Array[Mat] = c.chol.map(_.inverse)
  }

  implicit final class NnModelOps(private val m: NnModel) extends AnyVal {
    def maxAbsDiff(other: NnModel): Double = {
      require(other.nh == m.nh && other.d == m.d)
      Seq(m.w1.maxAbsDiff(other.w1), Vec.maxAbsDiff(m.b1, other.b1),
          Vec.maxAbsDiff(m.w2, other.w2), math.abs(m.b2 - other.b2)).max
    }

    /** Every parameter, for comparisons bit for bit. */
    def params: Seq[Double] = m.w1.a.toSeq ++ m.b1 ++ m.w2 :+ m.b2

    /** Forward pass for one tuple. */
    def predict(x: Array[Double]): Double = {
      val a = m.w1.mv(x)
      var o = m.b2
      for (j <- 0 until m.nh) o += m.w2(j) * m.activation.f(a(j) + m.b1(j))
      o
    }
  }
}
