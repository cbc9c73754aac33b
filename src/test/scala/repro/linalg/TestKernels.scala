package repro.linalg

import repro.core.nn.NnModel

/** Kernels only the specs call: reference implementations (`mm`, `outer`,
  * the explicit factor L, a one-row forward pass) and fixture builders that
  * the trainers never need. `import repro.linalg.TestKernels._` makes them
  * read as members of `Mat`, `Vec`, `Chol` and `NnModel`.
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
  }

  implicit final class VecOps(private val v: Vec.type) extends AnyVal {
    /** Element-wise `a - b` into a fresh array. */
    def sub(a: Array[Double], b: Array[Double]): Array[Double] = {
      require(a.length == b.length, s"sub: ${a.length} vs ${b.length}")
      Array.tabulate(a.length)(i => a(i) - b(i))
    }

    /** Concatenate vectors in order. */
    def concat(parts: Array[Double]*): Array[Double] = parts.flatten.toArray
  }

  implicit final class CholOps(private val c: Chol) extends AnyVal {
    /** Lower-triangular factor L (copy). */
    def lower: Mat = new Mat(c.n, c.n, c.ut).transpose
  }

  implicit final class NnModelOps(private val m: NnModel) extends AnyVal {
    /** Forward pass for one tuple. */
    def predict(x: Array[Double]): Double = {
      val a = m.w1.mv(x)
      var o = m.b2
      for (j <- 0 until m.nh) o += m.w2(j) * m.activation.f(a(j) + m.b1(j))
      o
    }
  }
}
