package repro.core.gmm

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropCheck
import repro.linalg.{Chol, Mat, Vec}
import repro.linalg.TestKernels._

/** Pure-math checks of the model plumbing: density constants,
  * responsibilities, and the stability of the log-sum-exp path.
  */
class GmmMathSpec extends AnyFunSuite with PropCheck {

  private def spd(n: Int, seed: Long): Mat = {
    val rnd = new scala.util.Random(seed)
    val b = new Mat(n, n, Array.fill(n * n)(rnd.nextGaussian()))
    val a = b.mm(b.transpose)
    (0 until n).foreach(i => a(i, i) += n.toDouble)
    a
  }

  private def modelGen: Gen[GmmModel] =
    for {
      k <- Gen.choose(1, 4)
      d <- Gen.choose(1, 5)
      seed <- Gen.choose(0L, 1000L)
    } yield {
      val rnd = new scala.util.Random(seed)
      val raw = Array.fill(k)(rnd.nextDouble() + 0.1)
      val z = raw.sum
      GmmModel(raw.map(_ / z), Array.fill(k)(Array.fill(d)(rnd.nextGaussian())),
               Array.tabulate(k)(i => spd(d, seed + i)))
    }

  test("init is deterministic and properly normalized") {
    val a = GmmModel.init(4, 6, seed = 9)
    val b = GmmModel.init(4, 6, seed = 9)
    assert(a.maxAbsDiff(b) === 0.0)
    assert(math.abs(a.weights.sum - 1.0) < 1e-12)
    assert(a.covs.forall(c => c.maxAbsDiff(Mat.eye(6)) === 0.0))
  }

  test("init differs across seeds") {
    assert(GmmModel.init(3, 4, 1).maxAbsDiff(GmmModel.init(3, 4, 2)) > 1e-6)
  }

  test("component cache reproduces the direct Gaussian density") {
    check(modelGen, n = 20) { m =>
      val cache = GmmComponentCache(m)
      val rnd = new scala.util.Random(7)
      val x = Array.fill(m.d)(rnd.nextGaussian())
      (0 until m.k).foreach { k =>
        val pd = Vec.sub(x, m.means(k))
        val quad = cache.inv(k).quadForm(pd)
        val viaCache = cache.logConst(k) - 0.5 * quad
        // direct: log π_k + log N(x | μ, Σ) via Cholesky of Σ (+ same ridge)
        val ch = Chol.regularized(m.covs(k), GmmComponentCache.Ridge)
        val direct = math.log(m.weights(k)) -
          0.5 * (m.d * math.log(2 * math.Pi) + ch.logDet + Vec.dot(pd, ch.solve(pd)))
        assert(math.abs(viaCache - direct) < 1e-8, s"k=$k: $viaCache vs $direct")
      }
    }
  }

  test("responsibilities sum to one and are non-negative") {
    check(modelGen, n = 20) { m =>
      val cache = GmmComponentCache(m)
      val rnd = new scala.util.Random(13)
      val x = Array.fill(m.d)(rnd.nextGaussian() * 3)
      val quad = (0 until m.k).map(k => cache.inv(k).quadForm(Vec.sub(x, m.means(k)))).toArray
      val gamma = new Array[Double](m.k)
      val ll = GmmMath.responsibilities(cache.logConst, quad, gamma)
      assert(math.abs(gamma.sum - 1.0) < 1e-10)
      assert(gamma.forall(_ >= 0.0))
      assert(!ll.isNaN && !ll.isInfinite)
    }
  }

  test("log-sum-exp path survives extreme quadratic forms") {
    val m = GmmModel.init(2, 2, 1)
    val cache = GmmComponentCache(m)
    val gamma = new Array[Double](2)
    // quads that would underflow exp() directly
    val ll = GmmMath.responsibilities(cache.logConst, Array(2000.0, 2400.0), gamma)
    assert(math.abs(gamma.sum - 1.0) < 1e-12)
    assert(gamma(0) > 0.99) // much smaller quad → dominates
    assert(!ll.isInfinite)
  }

  test("responsibilities below the smallest normal double are flushed to 0") {
    val gamma = new Array[Double](3)
    // exp(−715) ≈ 1.6e−311 is subnormal; exp(−700) ≈ 9.9e−305 is not
    val ll = GmmMath.responsibilities(Array(0.0, 0.0, 0.0), Array(0.0, 1430.0, 1400.0), gamma)
    assert(gamma(1) === 0.0)
    assert(gamma(2) > 0.0 && gamma(2) >= java.lang.Double.MIN_NORMAL)
    assert(gamma(0) + gamma(2) === 1.0)
    assert(ll === math.log(1.0 + math.exp(-715.0) + math.exp(-700.0)))
  }

  test("responsibility matches Bayes rule on a hand-checkable 1-d mixture") {
    // two unit-variance components at ±1, equal weights; x=0 is symmetric
    val m = GmmModel(Array(0.5, 0.5), Array(Array(-1.0), Array(1.0)),
                     Array(Mat.eye(1), Mat.eye(1)))
    val cache = GmmComponentCache(m)
    val gamma = new Array[Double](2)
    val quad = Array(1.0, 1.0) // (0-(-1))² and (0-1)²
    GmmMath.responsibilities(cache.logConst, quad, gamma)
    assert(math.abs(gamma(0) - 0.5) < 1e-12)
  }
}
