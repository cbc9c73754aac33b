package repro

import org.apache.spark.SparkContext
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{col, concat}
import scala.reflect.ClassTag

package object core {

  /** The training loop every trainer shares: run `n` steps from `init`, each
    * returning the next model and the objective (log-likelihood or loss) of
    * the model it started from.
    */
  private[core] def iterate[M](init: M, n: Int)(step: M => (M, Double)): (M, Seq[Double]) = {
    var model = init
    val objective = (0 until n).map { _ =>
      val (next, v) = step(model)
      model = next
      v
    }
    (model, objective)
  }

  /** The one partition merge of every pass: run `part` once per partition
    * of `rows`, collect the results indexed by partition and left-fold them
    * in partition order from `empty`. The same input therefore gives the
    * same sums bit for bit, and an input with no partitions gives `empty`,
    * whose M-step or gradient finish fails as an empty join.
    */
  private[core] def mergePartitions[T, A: ClassTag](rows: RDD[T], empty: A)(part: Iterator[T] => A)(
      merge: (A, A) => A): A =
    rows.sparkContext.runJob(rows, part).foldLeft(empty)(merge)

  /** Broadcast `value` to the jobs `body` runs, and destroy it afterwards. */
  private[core] def withBroadcast[A: ClassTag, B](sc: SparkContext, value: A)(body: Broadcast[A] => B): B = {
    val bc = sc.broadcast(value)
    try body(bc) finally bc.destroy()
  }

  /** The projected equi-join T(sid, xs, xr, keep…) of S ⋈ R1 ⋈ … ⋈ Rq
    * (paper §IV): S's FK column `fk<i>` references Ri's `rid`, and `xr` is
    * the R-side features in join order, one block per relation (offsets are
    * positional). For q = 1, `xr` is R1's own column, with no copy.
    */
  private[core] def joined(s: DataFrame, rs: Seq[DataFrame], keep: Seq[String]): DataFrame = {
    val fks = RRel.fkCols(rs.length)
    val xrCols = rs.indices.map(i => col(s"xr${i + 1}"))
    val t = rs.zipWithIndex.foldLeft(s) { case (t, (r, i)) =>
      val ri = r.withColumnRenamed("rid", s"rid${i + 1}").withColumnRenamed("xr", s"xr${i + 1}")
      t.join(ri, t(fks(i)) === ri(s"rid${i + 1}"))
    }
    val xr = if (rs.length == 1) xrCols.head else concat(xrCols: _*)
    t.select(Seq(col("sid"), col("xs"), xr as "xr") ++ keep.map(col): _*)
  }

  /** Every M-step and gradient divides its sums by n, the number of joined
    * rows: an empty join (every FK an orphan, or an S scan that yields no
    * rows) stops M, S and F here, on the driver.
    */
  private[core] def requireJoined(n: Long): Unit =
    require(n > 0, "the join is empty: no S row has a matching tuple in every R")

  /** A NaN or infinite feature in a joined row reaches every sum its row
    * adds to, so M, S and F all stop here, on the driver, when a finished
    * sum is not finite, instead of an M-step or a gradient step on NaN. A
    * tuple that no S row joins is never read, as in the inner join.
    */
  private[core] def requireFinite(sums: Array[Double]*): Unit =
    require(sums.forall(_.forall(java.lang.Double.isFinite)),
      "non-finite features: a joined row has a NaN or infinite feature, so the sums over the join are not finite")

  /** Copy one joined row's S and R features into `x`, rejecting a row that
    * would fill it wrongly: null features, or widths that do not add up to
    * the model's d = `x.length`.
    */
  private[core] def assemble(xs: Array[Double], xr: Array[Double], x: Array[Double]): Unit = {
    require(xs != null && xr != null && xs.length + xr.length == x.length,
      s"joined row has ${width(xs)} + ${width(xr)} features, expected ${x.length}")
    System.arraycopy(xs, 0, x, 0, xs.length)
    System.arraycopy(xr, 0, x, xs.length, xr.length)
  }

  /** Look up an S row of a factorized pass in every relation: fill `pos`
    * with its tuple's position in each Ri and return true, or return false
    * for an orphan row, one whose FK has no Ri tuple (the inner join drops
    * it). A joined row whose features are null or not `dS` wide is rejected.
    */
  private[core] def probe(rels: Array[RRel], fks: Array[Long], pos: Array[Int],
                          xs: Array[Double], dS: Int): Boolean = {
    var rel = 0
    while (rel < pos.length) {
      pos(rel) = rels(rel).index(fks(rel))
      if (pos(rel) < 0) return false
      rel += 1
    }
    require(xs != null && xs.length == dS, s"S row has ${width(xs)} features, expected $dS")
    true
  }

  private def width(x: Array[Double]): String = if (x == null) "null" else x.length.toString
}
