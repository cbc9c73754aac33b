package repro.linalg

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropCheck
import repro.linalg.TestKernels._

class VecSpec extends AnyFunSuite with PropCheck {

  private val vecGen: Gen[Array[Double]] =
    for {
      n  <- Gen.choose(1, 12)
      xs <- Gen.listOfN(n, Gen.choose(-100.0, 100.0))
    } yield xs.toArray

  private val pairGen: Gen[(Array[Double], Array[Double])] =
    for {
      n  <- Gen.choose(1, 12)
      xs <- Gen.listOfN(n, Gen.choose(-100.0, 100.0))
      ys <- Gen.listOfN(n, Gen.choose(-100.0, 100.0))
    } yield (xs.toArray, ys.toArray)

  test("dot of basis vectors picks the coordinate") {
    assert(Vec.dot(Array(1.0, 0.0, 0.0), Array(3.0, 4.0, 5.0)) === 3.0)
    assert(Vec.dot(Array(0.0, 0.0, 1.0), Array(3.0, 4.0, 5.0)) === 5.0)
  }

  test("dot is commutative") {
    check(pairGen) { case (a, b) =>
      assert(math.abs(Vec.dot(a, b) - Vec.dot(b, a)) < 1e-9)
    }
  }

  test("dot rejects mismatched lengths") {
    intercept[IllegalArgumentException](Vec.dot(Array(1.0), Array(1.0, 2.0)))
  }

  test("sub then add recovers the original") {
    check(pairGen) { case (a, b) =>
      val d = Vec.sub(a, b)
      val r = d.clone()
      Vec.addInPlace(r, b)
      assert(Vec.maxAbsDiff(r, a) < 1e-9)
    }
  }

  test("axpy accumulates s*x") {
    val acc = Array(1.0, 1.0)
    Vec.axpy(2.0, Array(3.0, 4.0), acc)
    assert(acc.toSeq == Seq(7.0, 9.0))
  }

  test("scale multiplies every entry") {
    check(Gen.zip(vecGen, Gen.choose(-5.0, 5.0))) { case (v, s) =>
      val out = Vec.scale(s, v)
      v.indices.foreach(i => assert(math.abs(out(i) - s * v(i)) < 1e-12))
    }
  }

  test("concat preserves order and length") {
    val c = Vec.concat(Array(1.0, 2.0), Array(3.0), Array(4.0, 5.0))
    assert(c.toSeq == Seq(1.0, 2.0, 3.0, 4.0, 5.0))
  }

  test("concat of slices is identity") {
    check(Gen.zip(vecGen, Gen.choose(0, 12))) { case (v, kRaw) =>
      val k = kRaw % (v.length + 1)
      val rebuilt = Vec.concat(Vec.slice(v, 0, k), Vec.slice(v, k, v.length))
      assert(rebuilt.toSeq == v.toSeq)
    }
  }

  test("maxAbsDiff is zero on identical vectors") {
    check(vecGen) { v => assert(Vec.maxAbsDiff(v, v.clone()) === 0.0) }
  }

  test("maxAbsDiff finds the largest gap") {
    assert(Vec.maxAbsDiff(Array(1.0, 2.0, 3.0), Array(1.0, 5.0, 2.5)) === 3.0)
  }
}
