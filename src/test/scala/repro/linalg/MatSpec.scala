package repro.linalg

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropCheck
import repro.linalg.TestKernels._

class MatSpec extends AnyFunSuite with PropCheck {

  private def matGen(maxDim: Int = 8): Gen[Mat] =
    for {
      r  <- Gen.choose(1, maxDim)
      c  <- Gen.choose(1, maxDim)
      xs <- Gen.listOfN(r * c, Gen.choose(-10.0, 10.0))
    } yield new Mat(r, c, xs.toArray)

  private def squareGen(maxDim: Int = 8): Gen[Mat] =
    for {
      n  <- Gen.choose(1, maxDim)
      xs <- Gen.listOfN(n * n, Gen.choose(-10.0, 10.0))
    } yield new Mat(n, n, xs.toArray)

  private def vecOf(n: Int): Gen[Array[Double]] =
    Gen.listOfN(n, Gen.choose(-10.0, 10.0)).map(_.toArray)

  test("identity mv is identity") {
    val x = Array(1.0, -2.0, 3.0)
    assert(Mat.eye(3).mv(x).toSeq == x.toSeq)
  }

  test("mv matches hand-computed example") {
    val m = Mat.fromRows(Seq(Seq(1.0, 2.0), Seq(3.0, 4.0), Seq(5.0, 6.0)))
    assert(m.mv(Array(1.0, 1.0)).toSeq == Seq(3.0, 7.0, 11.0))
  }

  test("mm against identity is identity") {
    check(squareGen()) { m =>
      assert(m.mm(Mat.eye(m.cols)).maxAbsDiff(m) < 1e-12)
      assert(Mat.eye(m.rows).mm(m).maxAbsDiff(m) < 1e-12)
    }
  }

  test("mm matches hand-computed 2x2") {
    val a = Mat.fromRows(Seq(Seq(1.0, 2.0), Seq(3.0, 4.0)))
    val b = Mat.fromRows(Seq(Seq(5.0, 6.0), Seq(7.0, 8.0)))
    val c = a.mm(b)
    assert(c(0, 0) === 19.0); assert(c(0, 1) === 22.0)
    assert(c(1, 0) === 43.0); assert(c(1, 1) === 50.0)
  }

  test("(AB)ᵀ = BᵀAᵀ") {
    check(Gen.zip(matGen(5), Gen.choose(1, 5))) { case (a, k) =>
      check(Gen.listOfN(a.cols * k, Gen.choose(-5.0, 5.0)), n = 2) { xs =>
        val b = new Mat(a.cols, k, xs.toArray)
        assert(a.mm(b).transpose.maxAbsDiff(b.transpose.mm(a.transpose)) < 1e-9)
      }
    }
  }

  test("quadForm equals xᵀ(Ax)") {
    check(squareGen()) { m =>
      check(vecOf(m.rows), n = 3) { x =>
        assert(math.abs(m.quadForm(x) - Vec.dot(x, m.mv(x))) < 1e-7)
      }
    }
  }

  test("bilinear equals xᵀ(Ay)") {
    check(matGen()) { m =>
      check(Gen.zip(vecOf(m.rows), vecOf(m.cols)), n = 3) { case (x, y) =>
        assert(math.abs(m.bilinear(x, y) - Vec.dot(x, m.mv(y))) < 1e-7)
      }
    }
  }

  test("block/setBlock round-trips a 2x2 partition") {
    check(Gen.zip(Gen.choose(1, 5), Gen.choose(1, 5))) { case (p, q) =>
      val n = p + q
      check(Gen.listOfN(n * n, Gen.choose(-5.0, 5.0)), n = 3) { xs =>
        val m = new Mat(n, n, xs.toArray)
        val rebuilt = Mat.zeros(n, n)
        rebuilt.setBlock(0, 0, m.block(0, p, 0, p))
        rebuilt.setBlock(0, p, m.block(0, p, p, n))
        rebuilt.setBlock(p, 0, m.block(p, n, 0, p))
        rebuilt.setBlock(p, p, m.block(p, n, p, n))
        assert(rebuilt.maxAbsDiff(m) === 0.0)
      }
    }
  }

  test("outer product has rank-1 structure") {
    val m = Mat.outer(Array(1.0, 2.0), Array(3.0, 4.0, 5.0))
    assert(m.rows == 2 && m.cols == 3)
    assert(m(0, 0) === 3.0); assert(m(1, 2) === 10.0)
  }

  test("addOuter accumulates s * x yᵀ") {
    check(Gen.zip(vecOf(3), vecOf(4), Gen.choose(-3.0, 3.0))) { case (x, y, s) =>
      val m = Mat.zeros(3, 4)
      m.addOuter(s, x, y)
      for (i <- 0 until 3; j <- 0 until 4)
        assert(math.abs(m(i, j) - s * x(i) * y(j)) < 1e-9)
    }
  }

  test("addOuterUpper then mirrorUpper equals addOuter(s, x, x)") {
    check(Gen.choose(1, 8)) { n =>
      check(Gen.listOfN(3, Gen.zip(vecOf(n), Gen.choose(-3.0, 3.0))), n = 3) { updates =>
        val upper = Mat.zeros(n, n)
        val full = Mat.zeros(n, n)
        updates.foreach { case (x, s) => upper.addOuterUpper(s, x); full.addOuter(s, x, x) }
        for (i <- 0 until n; j <- 0 until i) assert(upper(i, j) === 0.0) // lower left alone
        upper.mirrorUpper()
        assert(upper.maxAbsDiff(full) < 1e-9)
        assert(upper.maxAbsDiff(upper.transpose) === 0.0)
      }
    }
  }

  test("symmetrize yields a symmetric matrix preserving the symmetric part") {
    check(squareGen()) { m =>
      val s = m.copy
      s.symmetrize()
      for (i <- 0 until s.rows; j <- 0 until s.cols) {
        assert(math.abs(s(i, j) - s(j, i)) < 1e-12)
        assert(math.abs(s(i, j) - 0.5 * (m(i, j) + m(j, i))) < 1e-12)
      }
    }
  }

  test("scaled and minus behave element-wise") {
    check(matGen()) { m =>
      val z = m.scaled(2.0).minus(m).minus(m)
      assert(z.maxAbsDiff(Mat.zeros(m.rows, m.cols)) < 1e-9)
    }
  }

  test("diag places entries on the diagonal only") {
    val d = Mat.diag(Array(1.0, 2.0, 3.0))
    assert(d(0, 0) === 1.0); assert(d(2, 2) === 3.0); assert(d(0, 1) === 0.0)
  }

  test("constructor rejects wrong backing length") {
    intercept[IllegalArgumentException](new Mat(2, 2, Array(1.0, 2.0, 3.0)))
  }

  test("fromRows rejects ragged input") {
    intercept[IllegalArgumentException](Mat.fromRows(Seq(Seq(1.0), Seq(1.0, 2.0))))
  }
}
