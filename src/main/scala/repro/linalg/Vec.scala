package repro.linalg

/** Dense double-vector kernels used in the per-tuple hot loops.
  *
  * Everything operates on raw `Array[Double]` to keep the EM / backprop
  * inner loops allocation-free; no Breeze is available offline.
  */
object Vec {

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
}
