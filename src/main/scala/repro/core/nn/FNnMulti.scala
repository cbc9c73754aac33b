package repro.core.nn

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{array, col}
import repro.core.{RRel, iterate, probe}
import repro.linalg.{Mat, Vec}
import scala.collection.parallel.CollectionConverters._

/** Partition-local statistics of the factorized backprop pass: M/S's sums
  * over the S block alone plus per-FK grouped δ-sums for each Ri.
  *
  * `perFk(i)` is flat and indexed by Ri position: the tuple at `pos` owns
  * Σ δ (nh doubles) from `pos·nh`, and merging is an element-wise add. Rows
  * whose FK has no Ri tuple are not folded in; they are counted in
  * `orphans` (inner-join semantics).
  */
private[nn] final class FNnMultiAccum(val nh: Int, val dS: Int, val nR: Array[Int])
    extends Serializable {
  val q: Int = nR.length
  /** n, Σ e², the output and hidden gradient sums, and PG_S = Σ δ x_Sᵀ. */
  val s: NnAccum = new NnAccum(nh, dS)
  var orphans: Long = 0L
  val perFk: Array[Array[Double]] = Array.tabulate(q)(i => new Array[Double](nR(i) * nh))

  /** Fold in one joined row: S features `xs`, the position `pos(i)` of its
    * Ri tuple, output error `e`, hidden activations `h` and hidden δ.
    */
  def add(pos: Array[Int], xs: Array[Double], e: Double, h: Array[Double],
          delta: Array[Double]): Unit = {
    s.add(xs, e, h, delta)
    var rel = 0
    while (rel < q) { // grouped δ for PG_Ri
      val slot = perFk(rel)
      val base = pos(rel) * nh
      var j = 0
      while (j < nh) { slot(base + j) += delta(j); j += 1 }
      rel += 1
    }
  }

  def merge(o: FNnMultiAccum): FNnMultiAccum = {
    require(o.nh == nh && o.dS == dS && o.nR.sameElements(nR))
    s.merge(o.s); orphans += o.orphans
    var rel = 0
    while (rel < q) { Vec.addInPlace(perFk(rel), o.perFk(rel)); rel += 1 }
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
  * each PG_Ri is finished from flat per-position δ-sums with one outer
  * product per Ri tuple.
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
    step(sRows(s, rels.length), rels, model, lr, dS)
  }

  private def step(sRows: RDD[(Array[Long], Array[Double], Double)], rels: Array[RRel],
                   model: NnModel, lr: Double, dS: Int): (NnModel, Double) = {
    val (loss, grads) = finish(pass(sRows, rels, model, dS), rels, model.d).toGrads
    (model.step(grads, lr), loss)
  }

  /** S as (FKs, xs, y) rows, reading the FKs into R1 … Rq from
    * `fk1 … fkq`: planned once, scanned again by every pass.
    */
  private[nn] def sRows(s: DataFrame, q: Int): RDD[(Array[Long], Array[Double], Double)] = {
    import s.sparkSession.implicits._
    s.select(array(RRel.fkCols(q).map(col): _*) as "fks", col("xs"), col("y"))
      .as[(Array[Long], Array[Double], Double)].rdd
  }

  /** `W1_Ri x_r` for every Ri tuple: nh doubles from `pos·nh` per tuple. */
  private def precompute(rels: Array[RRel], model: NnModel, dS: Int): Array[Array[Double]] = {
    val nh = model.nh
    val offs = rels.map(_.width).scanLeft(dS)(_ + _)
    Array.tabulate(rels.length) { i =>
      val w1R = model.w1.block(0, nh, offs(i), offs(i + 1))
      val rows = rels(i).rows
      val pre = new Array[Double](rows.length * nh)
      rels(i).chunks.par.foreach(_.foreach(pos => w1R.mvInto(rows(pos)._2, pre, pos * nh)))
      pre
    }
  }

  /** Forward and backward over S only, with W1_Ri x_r precomputed per Ri tuple. */
  private[nn] def pass(sRows: RDD[(Array[Long], Array[Double], Double)], rels: Array[RRel],
                       model: NnModel, dS: Int): FNnMultiAccum = {
    val q = rels.length
    val nh = model.nh
    val nR = rels.map(_.rows.length)
    require(dS >= 0 && model.d == dS + rels.map(_.width).sum,
      s"model d=${model.d} != $dS + ${rels.map(_.width).mkString("+")}")
    // The tasks read only the S block of W1, the other small parameters and the broadcast.
    val w1S = model.w1.block(0, nh, 0, dS)
    val b1 = model.b1; val w2 = model.w2; val b2 = model.b2
    val act = model.activation
    val bc = sRows.sparkContext.broadcast((rels.map(_.index), precompute(rels, model, dS)))

    try {
      sRows
        .mapPartitions { it =>
          val (index, pre) = bc.value
          val a = new FNnMultiAccum(nh, dS, nR)
          val preAct = new Array[Double](nh)
          val h = new Array[Double](nh)
          val delta = new Array[Double](nh)
          val pos = new Array[Int](q)
          it.foreach { case (fks, xs, y) =>
            if (!probe(index, fks, pos, xs, dS)) a.orphans += 1
            else {
              w1S.mvInto(xs, preAct, 0) // nh·dS instead of nh·d
              Vec.addInPlace(preAct, b1)
              var rel = 0
              while (rel < q) {
                val p = pre(rel)
                val base = pos(rel) * nh
                var j = 0
                while (j < nh) { preAct(j) += p(base + j); j += 1 }
                rel += 1
              }
              a.add(pos, xs, NnAccum.backprop(preAct, y, w2, b2, act, h, delta), h, delta)
            }
          }
          Iterator.single(a)
        }
        .reduce(_.merge(_))
    } finally bc.destroy()
  }

  /** M/S's sums over the full width d: the pass's S-block sums, with
    * ∂E/∂W1 assembled as [PG_S | PG_R1 …] (Eq. 32), each PG_Ri finished with
    * one outer product per Ri tuple from its δ-sum.
    */
  private def finish(acc: FNnMultiAccum, rels: Array[RRel], d: Int): NnAccum = {
    val nh = acc.nh
    val full = new NnAccum(nh, d)
    full.n = acc.s.n; full.sqErr = acc.s.sqErr; full.db2 = acc.s.db2
    System.arraycopy(acc.s.db1, 0, full.db1, 0, nh)
    System.arraycopy(acc.s.dW2, 0, full.dW2, 0, nh)
    full.dW1.setBlock(0, 0, acc.s.dW1)
    var off = acc.dS
    rels.indices.foreach { rel =>
      val rows = rels(rel).rows
      val g = Mat.zeros(nh, rels(rel).width)
      rows.indices.foreach(pos => g.addOuter(1.0, acc.perFk(rel), pos * nh, rows(pos)._2, 0))
      full.dW1.setBlock(0, off, g)
      off += rels(rel).width
    }
    full
  }

  /** Collect, check and index each Ri once, then run `epochs` factorized epochs. */
  def train(s: DataFrame, rs: Seq[DataFrame], init: NnModel, epochs: Int, lr: Double): NnFit = {
    val rels = RRel.collect(rs)
    val dS = init.d - rels.map(_.width).sum
    val rows = sRows(s, rels.length)
    val (model, losses) = iterate(init, epochs)(step(rows, rels, _, lr, dS))
    NnFit(model, losses)
  }
}
