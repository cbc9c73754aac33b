package repro.linalg

/** Dense row-major matrix with the small set of kernels GMM/NN training
  * needs: matrix–vector products, outer-product accumulation and block
  * copies ([[Chol]] factors the covariances).
  *
  * Matrices here are small (d ≤ a few hundred, nh ≤ a few hundred); the
  * large dimension (number of tuples) is handled by Spark, never
  * materialized into a `Mat`.
  *
  * @param rows number of rows
  * @param cols number of columns
  * @param a    row-major backing array of length rows*cols
  */
final class Mat(val rows: Int, val cols: Int, val a: Array[Double]) extends Serializable {
  require(a.length == rows * cols, s"backing array ${a.length} != $rows*$cols")

  @inline def apply(i: Int, j: Int): Double = a(i * cols + j)
  @inline def update(i: Int, j: Int, v: Double): Unit = a(i * cols + j) = v

  def copy: Mat = new Mat(rows, cols, a.clone())

  /** `out(outOff until outOff + rows) = this * x'` with x' = x(xOff until
    * xOff + cols), allocation-free.
    */
  def mvInto(x: Array[Double], xOff: Int, out: Array[Double], outOff: Int): Unit = {
    var i = 0
    while (i < rows) {
      var s = 0.0; var j = 0; val off = i * cols
      while (j < cols) { s += a(off + j) * x(xOff + j); j += 1 }
      out(outOff + i) = s; i += 1
    }
  }

  def transpose: Mat = {
    val out = Mat.zeros(cols, rows)
    var i = 0
    while (i < rows) { var j = 0; while (j < cols) { out.a(j * rows + i) = a(i * cols + j); j += 1 }; i += 1 }
    out
  }

  /** Sub-matrix `this(r0 until r1, c0 until c1)` as a fresh Mat. */
  def block(r0: Int, r1: Int, c0: Int, c1: Int): Mat = {
    require(0 <= r0 && r0 <= r1 && r1 <= rows && 0 <= c0 && c0 <= c1 && c1 <= cols)
    val out = Mat.zeros(r1 - r0, c1 - c0)
    var i = r0
    while (i < r1) {
      System.arraycopy(a, i * cols + c0, out.a, (i - r0) * out.cols, c1 - c0)
      i += 1
    }
    out
  }

  /** Write `src` into this matrix at offset (r0, c0) in place. */
  def setBlock(r0: Int, c0: Int, src: Mat): Unit = {
    require(r0 + src.rows <= rows && c0 + src.cols <= cols)
    var i = 0
    while (i < src.rows) {
      System.arraycopy(src.a, i * src.cols, a, (r0 + i) * cols + c0, src.cols)
      i += 1
    }
  }

  /** `this += s * x yᵀ` in place (outer-product accumulation). */
  def addOuter(s: Double, x: Array[Double], y: Array[Double]): Unit = {
    require(x.length == rows && y.length == cols)
    addOuter(s, x, 0, y, 0)
  }

  /** `this(·, c0 until c0 + n) += s * x' y'ᵀ` in place, where
    * x' = x(xOff until xOff + rows) and y' = y(yOff until yOff + n): the outer
    * product of two slices of flat arrays, without copying them out, into
    * the n columns from c0 (by default all of them).
    */
  def addOuter(s: Double, x: Array[Double], xOff: Int, y: Array[Double], yOff: Int,
               c0: Int = 0, n: Int = cols): Unit = {
    var i = 0
    while (i < rows) {
      val sxi = s * x(xOff + i); val off = i * cols + c0; var j = 0
      while (j < n) { a(off + j) += sxi * y(yOff + j); j += 1 }
      i += 1
    }
  }

  /** `this += s * x' x'ᵀ` with x' = x(xOff until xOff + rows), on the upper
    * triangle only (j ≥ i), in place: half the work of `addOuter(s, x, x)`
    * for a symmetric sum. The strict lower triangle is left as is;
    * [[mirrorUpper]] fills it once the sum is done.
    */
  def addOuterUpper(s: Double, x: Array[Double], xOff: Int = 0): Unit = {
    require(rows == cols && xOff + rows <= x.length, s"addOuterUpper: $rows x $cols vs ${x.length}")
    var i = 0
    while (i < rows) {
      val sxi = s * x(xOff + i); val off = i * cols; var j = i
      while (j < cols) { a(off + j) += sxi * x(xOff + j); j += 1 }
      i += 1
    }
  }

  /** Copy the upper triangle onto the lower one in place: `this(j, i) = this(i, j)` for j > i. */
  def mirrorUpper(): Unit = {
    require(rows == cols)
    var i = 0
    while (i < rows) {
      var j = i + 1
      while (j < cols) { a(j * cols + i) = a(i * cols + j); j += 1 }
      i += 1
    }
  }

  /** `this += other` in place. */
  def addInPlace(other: Mat): Unit = {
    require(rows == other.rows && cols == other.cols)
    var i = 0
    while (i < a.length) { a(i) += other.a(i); i += 1 }
  }

  /** Fresh `this * s`. */
  def scaled(s: Double): Mat = new Mat(rows, cols, Vec.scale(s, a))

  /** Symmetrize in place: `this = (this + thisᵀ)/2` — kills fp drift in Σ. */
  def symmetrize(): Unit = {
    require(rows == cols)
    var i = 0
    while (i < rows) {
      var j = i + 1
      while (j < cols) {
        val m = 0.5 * (a(i * cols + j) + a(j * cols + i))
        a(i * cols + j) = m; a(j * cols + i) = m
        j += 1
      }
      i += 1
    }
  }
}

object Mat {
  def zeros(rows: Int, cols: Int): Mat = new Mat(rows, cols, new Array[Double](rows * cols))

  def eye(n: Int): Mat = diag(Array.fill(n)(1.0))

  def diag(d: Array[Double]): Mat = {
    val m = zeros(d.length, d.length)
    var i = 0
    while (i < d.length) { m(i, i) = d(i); i += 1 }
    m
  }
}
