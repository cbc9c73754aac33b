package repro.core.nn

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.InternalRow
import repro.core.{RRel, features, iterate, key, mergePartitions, probe, scan, target, targetCol, withBroadcast}
import repro.linalg.Vec
import scala.collection.parallel.CollectionConverters._

/** Partition sums of the factorized backprop pass, as a task returns them:
  * M/S's sums over the full width d (`sums`) and the count of `orphans`,
  * rows whose FK has no Ri tuple, which are not folded in (inner-join
  * semantics).
  *
  * A row adds only its S block to ∂E/∂W1; its δ also goes into task-local
  * per-tuple δ-sums, one flat array per Ri (the tuple at `pos` owns nh
  * doubles from `pos·nh`). [[seal]] adds each touched tuple's
  * (Σ δ) x_rᵀ into the Ri block of ∂E/∂W1, so no per-tuple state leaves
  * the task.
  */
private[nn] final class FNnMultiAccum(val nh: Int, val dS: Int, val dims: Array[Int],
                                      val nR: Array[Int]) extends Serializable {
  val q: Int = dims.length
  private val offs = dims.scanLeft(dS)(_ + _) // offs(i) = first column of Ri in W1
  val sums: NnAccum = new NnAccum(nh, offs(q))
  var orphans: Long = 0L
  @transient private lazy val deltaSums: Array[Array[Double]] =
    Array.tabulate(q)(i => new Array[Double](nR(i) * nh))
  @transient private lazy val touched: Array[Array[Boolean]] = Array.tabulate(q)(i => new Array[Boolean](nR(i)))

  /** Fold in one joined row: S features `xs`, the position `pos(i)` of its
    * Ri tuple, output error `e`, hidden activations `h` and hidden δ.
    */
  def add(pos: Array[Int], xs: Array[Double], e: Double, h: Array[Double],
          delta: Array[Double]): Unit = {
    sums.add(xs, e, h, delta)
    val ds = deltaSums; val hit = touched
    var rel = 0
    while (rel < q) { // grouped δ for PG_Ri
      val slot = ds(rel)
      val base = pos(rel) * nh
      var j = 0
      while (j < nh) { slot(base + j) += delta(j); j += 1 }
      hit(rel)(pos(rel)) = true
      rel += 1
    }
  }

  /** End of the task: PG_Ri += (Σ δ) x_rᵀ for every Ri tuple a row of this
    * task joined, x_r read from `x(i)` at `pos·dims(i)` (Eq. 32). Call it
    * once, after the last `add` and before any `merge`.
    */
  def seal(x: Array[Array[Double]]): this.type = {
    val ds = deltaSums; val hit = touched
    var rel = 0
    while (rel < q) {
      var pos = 0
      while (pos < nR(rel)) {
        if (hit(rel)(pos))
          sums.dW1.addOuter(1.0, ds(rel), pos * nh, x(rel), pos * dims(rel), offs(rel), dims(rel))
        pos += 1
      }
      rel += 1
    }
    this
  }

  def merge(o: FNnMultiAccum): FNnMultiAccum = {
    require(o.nh == nh && o.dS == dS && o.dims.sameElements(dims) && o.nR.sameElements(nR))
    sums.merge(o.sums); orphans += o.orphans
    this
  }
}

/** Algorithm F-NN for joins S ⋈ R1 ⋈ … ⋈ Rq (paper §VI-B); the binary
  * join of §VI-A is the case q = 1 ([[FNn]]).
  *
  * Forward (Eq. 31): the first-layer pre-activation is assembled as
  * `W1_S x_S + b1 + Σ_i W1_Ri x_{Ri}`, with each `W1_Ri x_r` computed once
  * per Ri tuple per epoch (one flat array of nh doubles per tuple, filled on
  * all driver cores) and reused for every matching S tuple — per-S-row
  * forward cost drops from nh·d to nh·dS.
  *
  * Backward (Eq. 32): `∂E/∂W1 = ∂E/∂a · xᵀ` splits into [PG_S | PG_R1 …];
  * each task finishes its share of every PG_Ri from its per-tuple δ-sums
  * with one outer product per tuple it touched, so the driver only merges
  * d-wide sums. Each relation's features and index are broadcast once per
  * run, the `W1_Ri x_r` arrays once per epoch.
  *
  * Per the paper's recommendation (§VI-A2), no factorization is attempted
  * beyond the first layer: sigmoid/tanh are not additive and even for
  * additive activations the op count increases (tested in `AdditivitySpec`).
  */
object FNnMulti {

  /** One factorized epoch; `rRows(i)` is the collected R_{i+1}. */
  def epoch(s: DataFrame, rRows: Seq[Array[(Long, Array[Double])]], model: NnModel,
            lr: Double, dS: Int): (NnModel, Double) = {
    val rels = RRel.all(rRows)
    withBroadcast(s.sparkSession.sparkContext, rels)(step(sRows(s, rels.length), _, model, lr, dS))
  }

  private def step(sRows: RDD[InternalRow], rels: Broadcast[Array[RRel]],
                   model: NnModel, lr: Double, dS: Int): (NnModel, Double) = {
    val (loss, grads) = pass(sRows, rels, model, dS).sums.toGrads
    (model.step(grads, lr), loss)
  }

  /** S's (fk1 … fkq, xs, y) rows, the FKs into R1 … Rq: planned once,
    * scanned again by every pass.
    */
  private[nn] def sRows(s: DataFrame, q: Int): RDD[InternalRow] =
    scan(s, RRel.fkCols(q).map(key) ++ Seq(features("xs"), targetCol): _*)

  /** `W1_Ri x_r` for every Ri tuple: nh doubles from `pos·nh` per tuple. */
  private def precompute(rels: Array[RRel], model: NnModel, dS: Int): Array[Array[Double]] = {
    val nh = model.nh
    val offs = rels.map(_.width).scanLeft(dS)(_ + _)
    Array.tabulate(rels.length) { i =>
      val w1R = model.w1.block(0, nh, offs(i), offs(i + 1))
      val x = rels(i).x
      val di = rels(i).width
      val pre = new Array[Double](rels(i).n * nh)
      rels(i).chunks.par.foreach(_.foreach(pos => w1R.mvInto(x, pos * di, pre, pos * nh)))
      pre
    }
  }

  /** Forward and backward over S only, with W1_Ri x_r precomputed per Ri tuple. */
  private[nn] def pass(sRows: RDD[InternalRow], rels: Broadcast[Array[RRel]],
                       model: NnModel, dS: Int): FNnMultiAccum = {
    val rs = rels.value
    val q = rs.length
    val nh = model.nh
    val dims = rs.map(_.width)
    val nR = rs.map(_.n)
    require(dS >= 0 && model.d == dS + dims.sum, s"model d=${model.d} != $dS + ${dims.mkString("+")}")
    // The tasks read only the S block of W1, the other small parameters and the broadcasts.
    val w1S = model.w1.block(0, nh, 0, dS)
    val b1 = model.b1; val w2 = model.w2; val b2 = model.b2
    val act = model.activation

    withBroadcast(sRows.sparkContext, precompute(rs, model, dS)) { preBc =>
      mergePartitions(sRows, new FNnMultiAccum(nh, dS, dims, nR)) { it =>
        val r = rels.value
        val pre = preBc.value
        val a = new FNnMultiAccum(nh, dS, dims, nR)
        val preAct = new Array[Double](nh)
        val h = new Array[Double](nh)
        val delta = new Array[Double](nh)
        val pos = new Array[Int](q)
        val xs = new Array[Double](dS)
        it.foreach { row =>
          if (!probe(r, row, pos, xs)) a.orphans += 1
          else {
            w1S.mvInto(xs, 0, preAct, 0) // nh·dS instead of nh·d
            Vec.addInPlace(preAct, b1)
            var rel = 0
            while (rel < q) {
              val p = pre(rel)
              val base = pos(rel) * nh
              var j = 0
              while (j < nh) { preAct(j) += p(base + j); j += 1 }
              rel += 1
            }
            a.add(pos, xs, NnAccum.backprop(preAct, target(row, q + 1), w2, b2, act, h, delta), h, delta)
          }
        }
        a.seal(r.map(_.x))
      }(_.merge(_))
    }
  }

  /** Read, check and index each Ri once while S's scan is planned,
    * broadcast it once, then run `epochs` factorized epochs.
    */
  def train(s: DataFrame, rs: Seq[DataFrame], init: NnModel, epochs: Int, lr: Double): NnFit = {
    val (rels, rows) = RRel.collect(rs)(sRows(s, rs.length))
    val dS = init.d - rels.map(_.width).sum
    val (model, losses) = withBroadcast(s.sparkSession.sparkContext, rels) { bc =>
      iterate(init, epochs)(step(rows, bc, _, lr, dS))
    }
    NnFit(model, losses)
  }
}
