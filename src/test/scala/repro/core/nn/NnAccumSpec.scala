package repro.core.nn

import org.scalatest.funsuite.AnyFunSuite
import repro.linalg.Vec
import repro.linalg.TestKernels._

/** Unit tests of the factorized backprop accumulator as a task returns it:
  * its partition merge, and agreement with the denormalized sums.
  */
class NnAccumSpec extends AnyFunSuite {

  private val rnd = new scala.util.Random(23)
  private val nh = 4; private val dS = 3

  /** One row: positions, xs, e, h and δ. */
  private def randomRow(nR: Array[Int]) =
    (nR.map(rnd.nextInt), Array.fill(dS)(rnd.nextGaussian()), rnd.nextGaussian(),
     Array.fill(nh)(rnd.nextDouble()), Array.fill(nh)(rnd.nextGaussian()))

  private def assertSumsAgree(a: NnAccum, b: NnAccum): Unit = {
    assert(a.n == b.n)
    assert(math.abs(a.sqErr - b.sqErr) < 1e-9 && math.abs(a.db2 - b.db2) < 1e-9)
    assert(a.dW1.maxAbsDiff(b.dW1) < 1e-9)
    assert(Vec.maxAbsDiff(a.db1, b.db1) < 1e-9)
    assert(Vec.maxAbsDiff(a.dW2, b.dW2) < 1e-9)
  }

  test("FNnMultiAccum merge is order-insensitive (flat per-position state, q=1 and q=2)") {
    // each part is sealed, as a task returns it
    for ((dims, nR) <- Seq((Array(2), Array(6)), (Array(2, 3), Array(5, 3)))) {
      val x = dims.zip(nR).map { case (di, n) => Array.fill(di * n)(rnd.nextGaussian()) }
      val pts = Array.fill(50)(randomRow(nR))
      def accumulate(idx: Seq[Int]): FNnMultiAccum = {
        val a = new FNnMultiAccum(nh, dS, dims, nR)
        idx.foreach { i =>
          val (pos, xs, e, h, delta) = pts(i)
          if (i % 7 == 0) a.orphans += 1 else a.add(pos, xs, e, h, delta)
        }
        a.seal(x)
      }
      val whole = accumulate(pts.indices)
      val merged = accumulate(30 until 50).merge(accumulate(0 until 12)).merge(accumulate(12 until 30))
      assert(whole.orphans == merged.orphans && whole.orphans == 8)
      assertSumsAgree(whole.sums, merged.sums)
    }
  }

  test("denormalized and factorized accumulators agree on the gradient sums (q=1 and q=2)") {
    // three sealed parts merged in order from an empty accumulator, against
    // M/S's sums over the concatenated rows; tuple 0 of R1 is never joined,
    // so its NaN features must not reach the sums
    for ((dims, nR) <- Seq((Array(2), Array(6)), (Array(2, 3), Array(5, 3)))) {
      val q = dims.length
      val x = dims.zip(nR).map { case (di, n) => Array.fill(di * n)(rnd.nextGaussian()) }
      java.util.Arrays.fill(x(0), 0, dims(0), Double.NaN)
      val denorm = new NnAccum(nh, dS + dims.sum)
      val parts = Array.fill(3)(new FNnMultiAccum(nh, dS, dims, nR))
      (0 until 60).foreach { n =>
        val (pos0, xs, e, h, delta) = randomRow(nR)
        val pos = pos0.updated(0, 1 + pos0(0) % (nR(0) - 1))
        val xr = (0 until q).map(rel => x(rel).slice(pos(rel) * dims(rel), (pos(rel) + 1) * dims(rel)))
        denorm.add(Vec.concat(xs +: xr: _*), e, h, delta)
        parts(n % 3).add(pos, xs, e, h, delta)
      }
      val fact = parts.map(_.seal(x)).foldLeft(new FNnMultiAccum(nh, dS, dims, nR))(_.merge(_))
      assertSumsAgree(denorm, fact.sums)
    }
  }
}
