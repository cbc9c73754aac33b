package repro.core.nn

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.data.NormalizedSynth
import repro.linalg.Vec
import repro.linalg.TestKernels._

/** Finite-difference validation of the backprop implementation: the
  * gradients recovered from one epoch (via the parameter delta / lr) must
  * match numeric derivatives of the loss for every parameter group.
  */
class NnGradSpec extends SparkSpec {

  private val lr = 1.0 // so (θ - θ') equals the gradient exactly

  private lazy val (sDf, rDf) =
    NormalizedSynth.binary(spark, nS = 300, nR = 10, dS = 2, dR = 3, seed = 19,
      withTarget = true)
  private lazy val tDf = DenormNn.joined(sDf, rDf)
  private lazy val local: Array[(Array[Double], Double)] =
    tDf.collect().map { row =>
      val xs = row.getSeq[Double](row.fieldIndex("xs")).toArray
      val xr = row.getSeq[Double](row.fieldIndex("xr")).toArray
      (Vec.concat(xs, xr), row.getDouble(row.fieldIndex("y")))
    }

  /** Loss of `m` over the collected join — the quantity backprop differentiates. */
  private def loss(m: NnModel): Double = {
    val se = local.map { case (x, y) => val e = m.predict(x) - y; e * e }.sum
    se / (2.0 * local.length)
  }

  private def gradsOf(t: DataFrame, m: NnModel): (NnGrads, Double) = {
    val (next, l) = DenormNn.epoch(t, m, lr)
    val dW1 = m.w1.minus(next.w1).scaled(1.0 / lr)
    val db1 = Vec.scale(1.0 / lr, Vec.sub(m.b1, next.b1))
    val dW2 = Vec.scale(1.0 / lr, Vec.sub(m.w2, next.w2))
    val db2 = (m.b2 - next.b2) / lr
    (NnGrads(dW1, db1, dW2, db2), l)
  }

  private def fdCheck(act: Activation): Unit = {
    val m = NnModel.init(nh = 4, d = 5, seed = 23, activation = act)
    val (g, reportedLoss) = gradsOf(tDf, m)
    assert(math.abs(reportedLoss - loss(m)) < 1e-9, "epoch loss != direct loss")
    val eps = 1e-6
    // spot-check several W1 entries
    for ((i, j) <- Seq((0, 0), (1, 2), (3, 4))) {
      val up = m.copy(w1 = { val w = m.w1.copy; w(i, j) += eps; w })
      val dn = m.copy(w1 = { val w = m.w1.copy; w(i, j) -= eps; w })
      val fd = (loss(up) - loss(dn)) / (2 * eps)
      assert(math.abs(fd - g.dW1(i, j)) < 1e-5, s"dW1($i,$j): fd=$fd bp=${g.dW1(i, j)}")
    }
    // b1, w2, b2
    val upB1 = m.copy(b1 = { val b = m.b1.clone(); b(1) += eps; b })
    val dnB1 = m.copy(b1 = { val b = m.b1.clone(); b(1) -= eps; b })
    assert(math.abs((loss(upB1) - loss(dnB1)) / (2 * eps) - g.db1(1)) < 1e-5)
    val upW2 = m.copy(w2 = { val w = m.w2.clone(); w(2) += eps; w })
    val dnW2 = m.copy(w2 = { val w = m.w2.clone(); w(2) -= eps; w })
    assert(math.abs((loss(upW2) - loss(dnW2)) / (2 * eps) - g.dW2(2)) < 1e-5)
    assert(math.abs((loss(m.copy(b2 = m.b2 + eps)) - loss(m.copy(b2 = m.b2 - eps))) / (2 * eps)
      - g.db2) < 1e-5)
  }

  test("backprop gradients match finite differences (sigmoid)") { fdCheck(Activation.Sigmoid) }
  test("backprop gradients match finite differences (tanh)") { fdCheck(Activation.Tanh) }
  test("backprop gradients match finite differences (identity)") { fdCheck(Activation.Identity) }

  test("backprop gradients match finite differences (relu, away from kinks)") {
    // ReLU is non-differentiable at 0; the random init makes measure-zero
    // kink hits, so the FD check is still valid at tolerance.
    fdCheck(Activation.Relu)
  }

  test("factorized epoch produces the same gradients as the denormalized epoch") {
    import spark.implicits._
    val rRows = rDf.select("rid", "xr").as[(Long, Array[Double])].collect()
    val m = NnModel.init(nh = 4, d = 5, seed = 29)
    val (nextD, lossD) = DenormNn.epoch(tDf, m, lr = 0.1)
    val (nextF, lossF) = FNn.epoch(sDf, rRows, m, lr = 0.1, dS = 2)
    assert(math.abs(lossD - lossF) < 1e-10)
    assert(nextD.maxAbsDiff(nextF) < 1e-9)
  }
}
