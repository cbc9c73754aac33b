package repro.core.gmm

import org.scalatest.funsuite.AnyFunSuite
import repro.linalg.Vec

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

  test("FGmmAccum merge combines per-FK slots correctly") {
    val pts = Array.fill(40)(randomPoint())
    def accumulate(idx: Seq[Int]): FGmmAccum = {
      val a = new FGmmAccum(k, dS)
      idx.foreach { i =>
        val (fk, xs, _, g, ll) = pts(i)
        a.add(fk, xs, g, ll)
      }
      a
    }
    val whole = accumulate(pts.indices)
    val merged = accumulate(0 until 15).merge(accumulate(15 until 40))
    assert(whole.perFk.size() == merged.perFk.size())
    whole.perFk.forEach { (fk, slot) =>
      assert(Vec.maxAbsDiff(slot, merged.perFk.get(fk)) < 1e-9)
    }
  }

  test("FGmmMultiAccum merge is order-insensitive (flat per-position state, q=2)") {
    val dims = Array(3, 2); val nR = Array(4, 3)
    val xr = dims.zip(nR).map { case (di, n) => Array.fill(di * n)(rnd.nextGaussian()) }
    val pts = Array.fill(50) {
      val (_, xs, _, g, ll) = randomPoint()
      (Array(rnd.nextInt(nR(0)), rnd.nextInt(nR(1))), xs, g, ll)
    }
    def accumulate(idx: Seq[Int]): FGmmMultiAccum = {
      val a = new FGmmMultiAccum(k, dS, dims, nR)
      idx.foreach { i =>
        val (pos, xs, g, ll) = pts(i)
        a.add(pos, xs, xr, Array(pos(0) * dims(0), pos(1) * dims(1)), g, ll)
      }
      a
    }
    val whole = accumulate(pts.indices)
    val merged = accumulate(30 until 50).merge(accumulate(0 until 12)).merge(accumulate(12 until 30))
    assert(whole.n == merged.n && whole.orphans == merged.orphans)
    assert(math.abs(whole.loglik - merged.loglik) < 1e-9)
    (0 until k).foreach { i =>
      assert(math.abs(whole.nk(i) - merged.nk(i)) < 1e-9)
      assert(Vec.maxAbsDiff(whole.sxS(i), merged.sxS(i)) < 1e-9)
      assert(whole.sxxSS(i).maxAbsDiff(merged.sxxSS(i)) < 1e-9)
      assert(whole.cross(0)(0)(i).maxAbsDiff(merged.cross(0)(0)(i)) < 1e-9)
    }
    (0 until 2).foreach(rel => assert(Vec.maxAbsDiff(whole.perFk(rel), merged.perFk(rel)) < 1e-9))
  }

  test("denormalized and factorized accumulators agree on the final model") {
    val pts = Array.fill(100)(randomPoint())
    val xrOf = (1L to 5L).map(fkv => fkv -> Array.fill(dR)(rnd.nextGaussian())).toMap

    val denorm = new GmmAccum(k, d)
    val fact = new FGmmAccum(k, dS)
    pts.foreach { case (fk, xs, _, g, ll) =>
      denorm.add(Vec.concat(xs, xrOf(fk)), g, ll)
      fact.add(fk, xs, g, ll)
    }
    val mD = denorm.toModel

    // finish the factorized side the way FGmm.finishBinary does
    val rRows = xrOf.toArray.map { case (rid, xr) => (rid, xr) }
    val finish = classOf[FGmm.type].getDeclaredMethods
      .find(_.getName == "finishBinary").get
    finish.setAccessible(true)
    val mF = finish.invoke(FGmm, fact, rRows, Int.box(k), Int.box(dS), Int.box(dR))
      .asInstanceOf[GmmModel]
    assert(mD.maxAbsDiff(mF) < 1e-9)
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
