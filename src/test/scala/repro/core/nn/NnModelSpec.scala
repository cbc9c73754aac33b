package repro.core.nn

import org.scalatest.funsuite.AnyFunSuite
import repro.linalg.{Mat, Vec}
import repro.linalg.TestKernels._

class NnModelSpec extends AnyFunSuite {

  test("sigmoid values and derivative") {
    val s = Activation.Sigmoid
    assert(math.abs(s.f(0.0) - 0.5) < 1e-12)
    assert(s.f(10.0) > 0.9999 && s.f(-10.0) < 0.0001)
    assert(math.abs(s.fPrime(0.0) - 0.25) < 1e-12)
    // f' = f(1-f) everywhere
    Seq(-2.0, -0.5, 0.3, 1.7).foreach { a =>
      assert(math.abs(s.fPrime(a) - s.f(a) * (1 - s.f(a))) < 1e-12)
    }
  }

  test("relu values and subgradient") {
    val r = Activation.Relu
    assert(r.f(3.0) === 3.0); assert(r.f(-3.0) === 0.0)
    assert(r.fPrime(2.0) === 1.0); assert(r.fPrime(-2.0) === 0.0)
  }

  test("tanh derivative is 1 - tanh²") {
    val t = Activation.Tanh
    Seq(-1.5, 0.0, 0.8).foreach { a =>
      assert(math.abs(t.fPrime(a) - (1 - math.pow(math.tanh(a), 2))) < 1e-12)
    }
  }

  test("identity is trivially linear") {
    val i = Activation.Identity
    assert(i.f(1.7) === 1.7); assert(i.fPrime(-3.0) === 1.0)
  }

  test("init is deterministic and shape-correct") {
    val a = NnModel.init(nh = 8, d = 5, seed = 3)
    val b = NnModel.init(nh = 8, d = 5, seed = 3)
    assert(a.maxAbsDiff(b) === 0.0)
    assert(a.w1.rows == 8 && a.w1.cols == 5 && a.b1.length == 8 && a.w2.length == 8)
    assert(NnModel.init(8, 5, 4).maxAbsDiff(a) > 1e-6)
  }

  test("predict computes w2·f(W1 x + b1) + b2 on a hand example") {
    // nh=1, d=2, identity activation: o = w2*(w11*x1 + w12*x2 + b1) + b2
    val m = NnModel(new Mat(1, 2, Array(2.0, -1.0)), Array(0.5), Array(3.0), 1.0,
                    Activation.Identity)
    // a = 2*1 -1*2 + 0.5 = 0.5; o = 3*0.5 + 1 = 2.5
    assert(math.abs(m.predict(Array(1.0, 2.0)) - 2.5) < 1e-12)
  }

  test("predict with sigmoid matches manual computation") {
    val m = NnModel(new Mat(1, 1, Array(1.0)), Array(0.0), Array(1.0), 0.0,
                    Activation.Sigmoid)
    assert(math.abs(m.predict(Array(0.0)) - 0.5) < 1e-12)
  }

  test("step applies -lr times each gradient") {
    val m = NnModel.init(nh = 2, d = 3, seed = 5)
    val g = NnGrads(new Mat(2, 3, Array.fill(6)(1.0)), Array(2.0, 2.0), Array(3.0, 3.0), 4.0)
    val next = m.step(g, lr = 0.1)
    assert(math.abs(next.w1(0, 0) - (m.w1(0, 0) - 0.1)) < 1e-12)
    assert(math.abs(next.b1(0) - (m.b1(0) - 0.2)) < 1e-12)
    assert(math.abs(next.w2(1) - (m.w2(1) - 0.3)) < 1e-12)
    assert(math.abs(next.b2 - (m.b2 - 0.4)) < 1e-12)
    // original untouched (immutability)
    assert(Vec.maxAbsDiff(m.b1, NnModel.init(2, 3, 5).b1) === 0.0)
  }

  test("maxAbsDiff rejects shape mismatches") {
    intercept[IllegalArgumentException] {
      NnModel.init(2, 3, 1).maxAbsDiff(NnModel.init(2, 4, 1))
    }
  }
}
