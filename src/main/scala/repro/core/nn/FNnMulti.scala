package repro.core.nn

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{array, col}
import repro.core.{RRel, iterate, requireS}
import repro.linalg.{Mat, Vec}
import scala.collection.parallel.CollectionConverters._

/** Partition-local statistics of the factorized backprop pass: the S-block
  * gradient sums plus per-FK grouped δ-sums for each Ri.
  *
  * `perFk(i)` is flat and indexed by Ri position: the tuple at `pos` owns
  * Σ δ (nh doubles) from `pos·nh`, and merging is an element-wise add. Rows
  * whose FK has no Ri tuple are not folded in; they are counted in
  * `orphans` (inner-join semantics).
  */
private[nn] final class FNnMultiAccum(val nh: Int, val dS: Int, val nR: Array[Int])
    extends Serializable {
  val q: Int = nR.length
  var n: Long = 0L
  var orphans: Long = 0L
  var sqErr: Double = 0.0
  val dW1S: Mat = Mat.zeros(nh, dS)
  val db1: Array[Double] = new Array[Double](nh)
  val dW2: Array[Double] = new Array[Double](nh)
  var db2: Double = 0.0
  val perFk: Array[Array[Double]] = Array.tabulate(q)(i => new Array[Double](nR(i) * nh))

  /** Fold in one joined row: S features `xs`, the position `pos(i)` of its
    * Ri tuple, output error `e`, hidden activations `h` and hidden δ.
    */
  def add(pos: Array[Int], xs: Array[Double], e: Double, h: Array[Double],
          delta: Array[Double]): Unit = {
    n += 1; sqErr += e * e; db2 += e
    Vec.axpy(e, h, dW2)
    Vec.addInPlace(db1, delta)
    dW1S.addOuter(1.0, delta, xs) // PG_S
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
    n += o.n; orphans += o.orphans; sqErr += o.sqErr; db2 += o.db2
    dW1S.addInPlace(o.dW1S)
    Vec.addInPlace(db1, o.db1)
    Vec.addInPlace(dW2, o.dW2)
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
  * additive activations the op count increases (see [[Additivity]]).
  */
object FNnMulti {

  /** One factorized epoch; `rRows(i)` is the collected R_{i+1}. */
  def epoch(s: DataFrame, rRows: Seq[Array[(Long, Array[Double])]], model: NnModel,
            lr: Double, dS: Int): (NnModel, Double) =
    epoch(s, RRel.fkCols(rRows.length), rRows, model, lr, dS)

  /** [[epoch]] over S's FK columns `fks`, where `fks(i)` references `rRows(i)`. */
  private[nn] def epoch(s: DataFrame, fks: Seq[String], rRows: Seq[Array[(Long, Array[Double])]],
                        model: NnModel, lr: Double, dS: Int): (NnModel, Double) = {
    val rels = RRel.all(rRows)
    step(sRows(s, fks), rels, model, lr, dS)
  }

  private def step(sRows: RDD[(Array[Long], Array[Double], Double)], rels: Array[RRel],
                   model: NnModel, lr: Double, dS: Int): (NnModel, Double) = {
    val acc = pass(sRows, rels, model, dS)
    val inv = 1.0 / acc.n
    val grads = NnGrads(finish(acc, rels, model.d).scaled(inv), Vec.scale(inv, acc.db1),
                        Vec.scale(inv, acc.dW2), acc.db2 * inv)
    (model.step(grads, lr), acc.sqErr * 0.5 * inv)
  }

  /** S as (FKs, xs, y) rows, reading the FK of each relation from the
    * column named in `fks`: planned once, scanned again by every pass.
    */
  private[nn] def sRows(s: DataFrame, fks: Seq[String]): RDD[(Array[Long], Array[Double], Double)] = {
    import s.sparkSession.implicits._
    s.select(array(fks.map(col): _*) as "fks", col("xs"), col("y"))
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
            var hit = true
            var rel = 0
            while (hit && rel < q) {
              pos(rel) = index(rel)(fks(rel))
              hit = pos(rel) >= 0
              rel += 1
            }
            if (!hit) a.orphans += 1
            else {
              requireS(xs, dS)
              w1S.mvInto(xs, preAct, 0) // nh·dS instead of nh·d
              Vec.addInPlace(preAct, b1)
              rel = 0
              while (rel < q) {
                val p = pre(rel)
                val base = pos(rel) * nh
                var j = 0
                while (j < nh) { preAct(j) += p(base + j); j += 1 }
                rel += 1
              }
              var o = b2
              var j = 0
              while (j < nh) { h(j) = act.f(preAct(j)); o += w2(j) * h(j); j += 1 }
              val e = o - y
              j = 0
              while (j < nh) { delta(j) = e * w2(j) * act.fPrime(preAct(j)); j += 1 }
              a.add(pos, xs, e, h, delta)
            }
          }
          Iterator.single(a)
        }
        .reduce(_.merge(_))
    } finally bc.destroy()
  }

  /** Assemble the raw ∂E/∂W1 sums: PG_S from the pass, and each PG_Ri
    * finished with one outer product per Ri tuple from its δ-sum.
    */
  private def finish(acc: FNnMultiAccum, rels: Array[RRel], d: Int): Mat = {
    val nh = acc.nh
    val dW1 = Mat.zeros(nh, d)
    dW1.setBlock(0, 0, acc.dW1S)
    var off = acc.dS
    rels.indices.foreach { rel =>
      val rows = rels(rel).rows
      val g = Mat.zeros(nh, rels(rel).width)
      rows.indices.foreach(pos => g.addOuter(1.0, acc.perFk(rel), pos * nh, rows(pos)._2, 0))
      dW1.setBlock(0, off, g)
      off += rels(rel).width
    }
    dW1
  }

  def train(s: DataFrame, rs: Seq[DataFrame], init: NnModel, epochs: Int, lr: Double): NnFit =
    train(s, RRel.fkCols(rs.length), rs, init, epochs, lr)

  /** [[train]] over S's FK columns `fks`, where `fks(i)` references `rs(i)`:
    * collect, check and index each Ri once, then run `epochs` factorized epochs.
    */
  private[nn] def train(s: DataFrame, fks: Seq[String], rs: Seq[DataFrame], init: NnModel,
                        epochs: Int, lr: Double): NnFit = {
    val rels = RRel.collect(rs)
    val dS = init.d - rels.map(_.width).sum
    val rows = sRows(s, fks)
    val (model, losses) = iterate(init, epochs)(step(rows, rels, _, lr, dS))
    NnFit(model, losses)
  }
}
