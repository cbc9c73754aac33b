package repro.core.gmm

import org.scalatest.funsuite.AnyFunSuite
import repro.core.RRel
import repro.linalg.Vec
import repro.linalg.TestKernels._

/** Unit tests of the sufficient-statistics accumulators: partition-merge
  * associativity and agreement between the denormalized and factorized
  * accumulation paths on in-memory data.
  */
class GmmAccumSpec extends AnyFunSuite {

  private val k = 2; private val dS = 2; private val dR = 3; private val d = dS + dR
  private val rnd = new scala.util.Random(17)

  private def randomPoint(): (Long, Array[Double], Array[Double], Array[Double], Double) = {
    val fk = rnd.nextInt(5).toLong + 1
    val xs = Array.fill(dS)(rnd.nextGaussian())
    val xr = Array.fill(dR)(rnd.nextGaussian())
    val raw = Array.fill(k)(rnd.nextDouble() + 1e-3)
    val z = raw.sum
    (fk, xs, xr, raw.map(_ / z), rnd.nextGaussian())
  }

  test("GmmAccum merge is order-insensitive (associative + commutative sums)") {
    val pts = Array.fill(60)(randomPoint())
    def accumulate(idx: Seq[Int]): GmmAccum = {
      val a = new GmmAccum(k, d)
      idx.foreach { i =>
        val (_, xs, xr, g, ll) = pts(i)
        a.add(Vec.concat(xs, xr), g, ll)
      }
      a
    }
    val whole = accumulate(pts.indices)
    val merged = accumulate(0 until 20).merge(accumulate(20 until 45)).merge(accumulate(45 until 60))
    assert(whole.n == merged.n)
    assert(math.abs(whole.loglik - merged.loglik) < 1e-9)
    (0 until k).foreach { i =>
      assert(math.abs(whole.nk(i) - merged.nk(i)) < 1e-9)
      assert(Vec.maxAbsDiff(whole.sx(i), merged.sx(i)) < 1e-9)
      assert(whole.sxx(i).maxAbsDiff(merged.sxx(i)) < 1e-9)
    }
  }

  test("FGmmMultiAccum merge is order-insensitive (flat per-position state, q=2)") {
    // q = 1 is the binary join's per-FK state; each part is sealed, as a task returns it
    for ((dims, nR) <- Seq((Array(3), Array(5)), (Array(3, 2), Array(4, 3)))) {
      val q = dims.length
      val xr = dims.zip(nR).map { case (di, n) => Array.fill(di * n)(rnd.nextGaussian()) }
      val pts = Array.fill(50) {
        val (_, xs, _, g, ll) = randomPoint()
        (nR.map(rnd.nextInt), xs, g, ll)
      }
      def accumulate(idx: Seq[Int]): FGmmMultiAccum = {
        val a = new FGmmMultiAccum(k, dS, dims, nR)
        idx.foreach { i =>
          val (pos, xs, g, ll) = pts(i)
          if (i % 7 == 0) a.orphans += 1 else a.add(pos, xs, xr, g, ll)
        }
        a.seal(xr)
      }
      val whole = accumulate(pts.indices)
      val merged = accumulate(30 until 50).merge(accumulate(0 until 12)).merge(accumulate(12 until 30))
      assert(whole.s.n == merged.s.n && whole.orphans == merged.orphans && whole.orphans == 8)
      assert(math.abs(whole.s.loglik - merged.s.loglik) < 1e-9)
      (0 until k).foreach { i =>
        assert(math.abs(whole.s.nk(i) - merged.s.nk(i)) < 1e-9)
        assert(Vec.maxAbsDiff(whole.s.sx(i), merged.s.sx(i)) < 1e-9)
        assert(whole.s.sxx(i).maxAbsDiff(merged.s.sxx(i)) < 1e-9)
        for (a <- 0 until q) assert(whole.ur(a)(i).maxAbsDiff(merged.ur(a)(i)) < 1e-9)
        for (a <- 0 until q; b <- a + 1 until q)
          assert(whole.cross(a)(b - a - 1)(i).maxAbsDiff(merged.cross(a)(b - a - 1)(i)) < 1e-9)
      }
      (0 until q).foreach(rel => assert(Vec.maxAbsDiff(whole.g(rel), merged.g(rel)) < 1e-9))
    }
  }

  test("denormalized and factorized accumulators agree on the final model") {
    // the F-GMM engine's task results (three sealed parts, merged in order
    // from an empty accumulator) and its finish, for q = 1 (binary) and q = 2
    for (dims <- Seq(Array(dR), Array(dR, 2))) {
      val q = dims.length
      val xrOf = dims.map(di => (1L to 5L).map(_ -> Array.fill(di)(rnd.nextGaussian())).toMap)
      val rels = RRel.all(xrOf.toSeq.map(_.toArray))
      val x = rels.map(_.x)
      val nR = Array.fill(q)(5)

      val denorm = new GmmAccum(k, dS + dims.sum)
      val parts = Array.fill(3)(new FGmmMultiAccum(k, dS, dims, nR))
      Array.fill(100)(randomPoint()).zipWithIndex.foreach { case ((fk, xs, _, g, ll), n) =>
        val fks = fk +: Array.fill(q - 1)(rnd.nextInt(5) + 1L)
        val pos = fks.indices.map(rel => rels(rel).index(fks(rel))).toArray
        denorm.add(Vec.concat(xs +: fks.indices.map(rel => xrOf(rel)(fks(rel))): _*), g, ll)
        parts(n % 3).add(pos, xs, x, g, ll)
      }
      val fact = parts.map(_.seal(x)).foldLeft(new FGmmMultiAccum(k, dS, dims, nR))(_.merge(_))
      assert(denorm.toModel.maxAbsDiff(FGmmMulti.finish(fact, rels, dS)) < 1e-9)
    }
  }

  test("toModel covariances are exactly symmetric") {
    val a = new GmmAccum(k, d)
    Array.fill(40)(randomPoint()).foreach { case (_, xs, xr, g, ll) => a.add(Vec.concat(xs, xr), g, ll) }
    a.toModel.covs.foreach(c => assert(c.maxAbsDiff(c.transpose) === 0.0))
  }

  test("toModel yields normalized weights and mean of the weighted points") {
    val a = new GmmAccum(1, 2)
    a.add(Array(1.0, 2.0), Array(1.0), 0.0)
    a.add(Array(3.0, 4.0), Array(1.0), 0.0)
    val m = a.toModel
    assert(m.weights.head === 1.0)
    assert(m.means.head.toSeq == Seq(2.0, 3.0))
    // covariance of {(1,2),(3,4)} with equal weights: var 1 on both dims, cov 1
    assert(math.abs(m.covs.head(0, 0) - 1.0) < 1e-12)
    assert(math.abs(m.covs.head(0, 1) - 1.0) < 1e-12)
  }
}
