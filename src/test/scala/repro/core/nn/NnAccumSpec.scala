package repro.core.nn

import org.scalatest.funsuite.AnyFunSuite
import repro.linalg.Vec

/** Unit tests of the factorized backprop accumulator's partition merge. */
class NnAccumSpec extends AnyFunSuite {

  test("FNnMultiAccum merge is order-insensitive (flat per-position state, q=1 and q=2)") {
    val rnd = new scala.util.Random(23)
    val nh = 4; val dS = 3
    for (nR <- Seq(Array(6), Array(5, 3))) {
      val pts = Array.fill(50)((nR.map(rnd.nextInt), Array.fill(dS)(rnd.nextGaussian()),
        rnd.nextGaussian(), Array.fill(nh)(rnd.nextDouble()), Array.fill(nh)(rnd.nextGaussian())))
      def accumulate(idx: Seq[Int]): FNnMultiAccum = {
        val a = new FNnMultiAccum(nh, dS, nR)
        idx.foreach { i =>
          val (pos, xs, e, h, delta) = pts(i)
          if (i % 7 == 0) a.orphans += 1 else a.add(pos, xs, e, h, delta)
        }
        a
      }
      val whole = accumulate(pts.indices)
      val merged = accumulate(30 until 50).merge(accumulate(0 until 12)).merge(accumulate(12 until 30))
      assert(whole.s.n == merged.s.n && whole.orphans == merged.orphans && whole.orphans == 8)
      assert(math.abs(whole.s.sqErr - merged.s.sqErr) < 1e-9 && math.abs(whole.s.db2 - merged.s.db2) < 1e-9)
      assert(whole.s.dW1.maxAbsDiff(merged.s.dW1) < 1e-9)
      assert(Vec.maxAbsDiff(whole.s.db1, merged.s.db1) < 1e-9)
      assert(Vec.maxAbsDiff(whole.s.dW2, merged.s.dW2) < 1e-9)
      nR.indices.foreach(rel => assert(Vec.maxAbsDiff(whole.perFk(rel), merged.perFk(rel)) < 1e-9))
    }
  }
}
