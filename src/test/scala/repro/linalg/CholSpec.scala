package repro.linalg

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropCheck
import repro.linalg.TestKernels._

class CholSpec extends AnyFunSuite with PropCheck {

  /** Random SPD matrix: A = B Bᵀ + n·I (diagonally dominant enough). */
  private def spdGen(maxDim: Int = 8): Gen[Mat] =
    for {
      n  <- Gen.choose(1, maxDim)
      xs <- Gen.listOfN(n * n, Gen.choose(-2.0, 2.0))
    } yield {
      val b = new Mat(n, n, xs.toArray)
      val a = b.mm(b.transpose)
      var i = 0
      while (i < n) { a(i, i) += n.toDouble; i += 1 }
      a
    }

  private def vecOf(n: Int): Gen[Array[Double]] =
    Gen.listOfN(n, Gen.choose(-5.0, 5.0)).map(_.toArray)

  test("L Lᵀ reconstructs the input") {
    check(spdGen()) { a =>
      val l = Chol(a).lower
      assert(l.mm(l.transpose).maxAbsDiff(a) < 1e-8)
    }
  }

  test("lower factor is lower-triangular") {
    check(spdGen()) { a =>
      val l = Chol(a).lower
      for (i <- 0 until l.rows; j <- i + 1 until l.cols) assert(l(i, j) === 0.0)
    }
  }

  test("solve satisfies A x = b") {
    check(spdGen()) { a =>
      check(vecOf(a.rows), n = 3) { b =>
        val x = Chol(a).solve(b)
        assert(Vec.maxAbsDiff(a.mv(x), b) < 1e-6)
      }
    }
  }

  test("quadInv equals pdᵀ A⁻¹ pd, reusing one scratch array across calls") {
    val scratch = new Array[Double](8)
    check(spdGen()) { a =>
      val c = Chol(a)
      check(vecOf(a.rows), n = 3) { pd =>
        val before = pd.clone()
        val q = c.quadInv(pd, scratch)
        val direct = Vec.dot(pd, c.solve(pd))
        assert(math.abs(q - direct) <= 1e-9 * math.max(1.0, math.abs(direct)), s"$q vs $direct")
        assert(pd.sameElements(before)) // pd is read only
      }
    }
    // n = 1: (x / L)² with L = 3
    assert(math.abs(Chol(Mat.fromRows(Seq(Seq(9.0)))).quadInv(Array(6.0), scratch) - 4.0) < 1e-15)
  }

  test("forward over [0, m) then [m, n) is one full forward; from m it solves a right-hand side zero before m") {
    check(spdGen()) { a =>
      val c = Chol(a); val n = a.rows
      check(Gen.zip(vecOf(n), Gen.choose(0, n)), n = 3) { case (b, m) =>
        val full = b.clone(); val sFull = c.forward(full, 0, n)
        val split = b.clone(); val sSplit = c.forward(split, 0, m) + c.forward(split, m, n)
        assert(split.sameElements(full))
        assert(math.abs(sSplit - sFull) <= 1e-12 * math.max(1.0, sFull), s"$sSplit vs $sFull")
        val z = Array.tabulate(n)(i => if (i < m) 0.0 else b(i))
        val y = z.clone(); val sTail = c.forward(y, m, n)
        val direct = Vec.dot(z, c.solve(z)) // zᵀ A⁻¹ z
        assert(math.abs(sTail - direct) <= 1e-9 * math.max(1.0, direct), s"$sTail vs $direct")
        assert(y.take(m).forall(_ == 0.0))
        assert(Vec.maxAbsDiff(c.lower.mv(y), z) < 1e-9) // L y = z
      }
    }
  }

  test("inverse satisfies A A⁻¹ = I") {
    check(spdGen()) { a =>
      val inv = Chol(a).inverse
      assert(a.mm(inv).maxAbsDiff(Mat.eye(a.rows)) < 1e-6)
    }
  }

  test("inverse is symmetric") {
    check(spdGen()) { a =>
      val inv = Chol(a).inverse
      assert(inv.maxAbsDiff(inv.transpose) < 1e-10)
    }
  }

  test("logDet matches known diagonal case") {
    val a = Mat.diag(Array(2.0, 3.0, 4.0))
    assert(math.abs(Chol(a).logDet - math.log(24.0)) < 1e-12)
  }

  test("logDet matches product of eigenvalue surrogate on 2x2") {
    val a = Mat.fromRows(Seq(Seq(4.0, 1.0), Seq(1.0, 3.0)))
    // det = 11
    assert(math.abs(Chol(a).logDet - math.log(11.0)) < 1e-12)
  }

  test("non-SPD input is rejected") {
    intercept[IllegalArgumentException](Chol(Mat.fromRows(Seq(Seq(0.0, 0.0), Seq(0.0, -1.0)))))
  }

  test("non-square input is rejected") {
    intercept[IllegalArgumentException](Chol(Mat.zeros(2, 3)))
  }

  test("regularized adds the ridge before factorizing") {
    val a = Mat.zeros(2, 2) // singular
    val c = Chol.regularized(a, 1.0)
    assert(math.abs(c.logDet - 0.0) < 1e-12) // ridge 1 -> identity, logdet 0
  }

  test("1x1 case") {
    val c = Chol(Mat.fromRows(Seq(Seq(9.0))))
    assert(c.lower(0, 0) === 3.0)
    assert(math.abs(c.logDet - math.log(9.0)) < 1e-12)
    assert(c.solve(Array(18.0)).head === 2.0)
  }
}
