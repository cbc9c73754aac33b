package repro.linalg

/** Dense double-vector kernels used in the per-tuple hot loops.
  *
  * Everything operates on raw `Array[Double]` to keep the EM / backprop
  * inner loops allocation-free; no Breeze is available offline.
  */
object Vec {

  /** Dot product of `a` and `b` (lengths must match). */
  def dot(a: Array[Double], b: Array[Double]): Double = {
    require(a.length == b.length, s"dot: ${a.length} vs ${b.length}")
    dot(a, 0, b, 0, a.length)
  }

  /** Dot product of the slices a(aOff until aOff + n) and b(bOff until bOff + n). */
  def dot(a: Array[Double], aOff: Int, b: Array[Double], bOff: Int, n: Int): Double = {
    var s = 0.0; var i = 0
    while (i < n) { s += a(aOff + i) * b(bOff + i); i += 1 }
    s
  }

  /** `acc += s * x` in place. */
  def axpy(s: Double, x: Array[Double], acc: Array[Double]): Unit = {
    require(x.length == acc.length, s"axpy: ${x.length} vs ${acc.length}")
    var i = 0
    while (i < acc.length) { acc(i) += s * x(i); i += 1 }
  }

  /** `acc += x` in place. */
  def addInPlace(acc: Array[Double], x: Array[Double]): Unit = axpy(1.0, x, acc)

  /** Scale a copy of `x` by `s`. */
  def scale(s: Double, x: Array[Double]): Array[Double] = {
    val out = new Array[Double](x.length)
    var i = 0
    while (i < x.length) { out(i) = s * x(i); i += 1 }
    out
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
