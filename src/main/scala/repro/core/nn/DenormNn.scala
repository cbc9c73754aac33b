package repro.core.nn

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.InternalRow
import repro.core.{assemble, features, iterate, mergePartitions, requireFinite, requireJoined, scan, scans, target, targetCol}
import repro.linalg.{Mat, Vec}

/** Result of an NN training run: final model plus the mean-squared-error
  * loss E of the model *entering* each epoch.
  */
final case class NnFit(model: NnModel, losses: Seq[Double])

/** Partition-local backprop sums for one full-batch epoch: raw (un-scaled)
  * Σ e·h, Σ e, Σ δ xᵀ, Σ δ and Σ e² — the 1/N factors are applied once at
  * the end, after the partitions are merged in partition order.
  */
private[nn] final class NnAccum(val nh: Int, val d: Int) extends Serializable {
  var n: Long = 0L
  var sqErr: Double = 0.0
  val dW1: Mat = Mat.zeros(nh, d)
  val db1: Array[Double] = new Array[Double](nh)
  val dW2: Array[Double] = new Array[Double](nh)
  var db2: Double = 0.0

  /** Fold in one row: its leading features `x` (all d of them for M and S;
    * the S block for F, whose tasks add the R blocks once per R tuple),
    * output error `e`, hidden activations `h` and hidden δ (see
    * [[NnAccum.backprop]]).
    */
  def add(x: Array[Double], e: Double, h: Array[Double], delta: Array[Double]): Unit = {
    n += 1; sqErr += e * e; db2 += e
    Vec.axpy(e, h, dW2)
    Vec.addInPlace(db1, delta)
    dW1.addOuter(1.0, delta, 0, x, 0, 0, x.length) // ∂E/∂W1 = δ xᵀ (Eq. 28)
  }

  def merge(o: NnAccum): NnAccum = {
    require(o.nh == nh && o.d == d)
    n += o.n; sqErr += o.sqErr; db2 += o.db2
    dW1.addInPlace(o.dW1)
    Vec.addInPlace(db1, o.db1)
    Vec.addInPlace(dW2, o.dW2)
    this
  }

  /** Scale the sums into (E, ∂E/∂θ): E = sqErr/(2N), gradients get 1/N.
    * M, S and F all end here.
    */
  def toGrads: (Double, NnGrads) = {
    requireJoined(n)
    requireFinite(Array(sqErr, db2), db1, dW2, dW1.a)
    val inv = 1.0 / n
    (sqErr * 0.5 * inv,
     NnGrads(dW1.scaled(inv), Vec.scale(inv, db1), Vec.scale(inv, dW2), db2 * inv))
  }
}

private[nn] object NnAccum {

  /** Finish one row's forward pass and its backward pass down to the hidden
    * layer, given the first-layer pre-activation `pre` (b1 included):
    * h = f(pre), o = w2·h + b2, δ_j = e·w2_j·f'(pre_j). Fills `h` and
    * `delta` and returns the output error e = o − y.
    */
  def backprop(pre: Array[Double], y: Double, w2: Array[Double], b2: Double, act: Activation,
               h: Array[Double], delta: Array[Double]): Double = {
    var o = b2
    var j = 0
    while (j < h.length) { h(j) = act.f(pre(j)); o += w2(j) * h(j); j += 1 }
    val e = o - y
    j = 0
    while (j < h.length) { delta(j) = e * w2(j) * act.fPrime(pre(j)); j += 1 }
    e
  }
}

/** Backprop over the *denormalized* representation — the compute shared by
  * M-NN (T materialized) and S-NN (join on the fly). Every joined tuple is
  * pushed through the full d-wide first layer; partial products for shared
  * R tuples are recomputed every time — the redundancy F-NN removes.
  */
object DenormNn {

  /** T(sid, xs, xr, y): the projected equi-join with the learning target,
    * the case q = 1 of [[SNn.joinedMulti]]; kept for perfbench and the specs
    * (ROADMAP item 3).
    */
  def joined(s: DataFrame, r: DataFrame): DataFrame = SNn.joinedMulti(s, Seq(r))

  /** One full-batch epoch over T, planning T's scan for this call: returns
    * (updated model, loss E of the incoming model).
    */
  def epoch(t: DataFrame, model: NnModel, lr: Double): (NnModel, Double) = step(rows(t), model, lr)

  /** The columns of T a pass reads. */
  private def cols = Seq(features("xs"), features("xr"), targetCol)

  /** T's (xs, xr, y) rows: a planned scan that every pass over it runs again. */
  private[nn] def rows(t: DataFrame): RDD[InternalRow] = scan(t, cols: _*)

  /** T's (xs, xr, y) rows planned once, for passes that each compute T
    * again: every call's rows read T's inputs and run its joins again.
    */
  private[nn] def joins(t: DataFrame): () => RDD[InternalRow] = scans(t, cols: _*)

  /** One full-batch epoch: one pass over planned rows of T. */
  private def step(rows: RDD[InternalRow], model: NnModel, lr: Double): (NnModel, Double) = {
    val nh = model.nh; val d = model.d
    val w1 = model.w1; val b1 = model.b1; val w2 = model.w2; val b2 = model.b2
    val act = model.activation

    val acc = mergePartitions(rows, new NnAccum(nh, d)) { it =>
      val a = new NnAccum(nh, d)
      val x = new Array[Double](d) // full-width tuple as stored in T
      val pre = new Array[Double](nh)
      val h = new Array[Double](nh)
      val delta = new Array[Double](nh)
      it.foreach { row =>
        assemble(row, x)
        // forward: a_j = Σ_i w1_ji x_i + b1_j (paper §VI-A1, undecomposed)
        w1.mvInto(x, 0, pre, 0)
        Vec.addInPlace(pre, b1)
        a.add(x, NnAccum.backprop(pre, target(row, 2), w2, b2, act, h, delta), h, delta)
      }
      a
    }(_.merge(_))
    val (loss, grads) = acc.toGrads
    (model.step(grads, lr), loss)
  }

  /** Run `epochs` full-batch GD epochs, each one pass over the rows
    * `scan()` returns for it. M-NN passes the rows of T it planned once, so
    * every pass re-reads T's files; S-NN passes [[joins]] of the join it
    * planned once, so every pass reads S and R and joins them again.
    */
  def train(scan: () => RDD[InternalRow], init: NnModel, epochs: Int, lr: Double): NnFit = {
    val (model, losses) = iterate(init, epochs)(step(scan(), _, lr))
    NnFit(model, losses)
  }
}
