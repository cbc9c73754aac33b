package repro

import org.apache.spark.SparkContext
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.util.ArrayData
import org.apache.spark.sql.execution.{SQLExecutionRDD, SparkPlan}
import org.apache.spark.sql.execution.adaptive.{AdaptiveExecutionContext, AdaptiveSparkPlanExec}
import org.apache.spark.sql.execution.exchange.{Exchange, ReusedExchangeExec}
import org.apache.spark.sql.functions.{col, concat}
import org.apache.spark.sql.types.{ArrayType, DoubleType, LongType}
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

  /** A planned scan of `df`'s columns `cols` as Spark's internal rows. A
    * task reads each field in place into its own scratch, with no encoder
    * and no per-row objects. Spark reuses one row object for every row of a
    * task, so a reader reads a row's fields while it is at that row and
    * keeps no row and no array of one.
    */
  private[core] def scan(df: DataFrame, cols: Column*): RDD[InternalRow] =
    df.select(cols: _*).queryExecution.toRdd

  /** Scans of `df`'s columns `cols` planned once, each of which runs the
    * whole plan again: every call returns the rows of a copy of the
    * executed plan that keeps its leaves, so it re-reads their files
    * through the read RDDs planned with the plan, and builds every other
    * node anew, so each exchange shuffles again into new shuffle files. A
    * reused exchange reads the copy of the exchange it reuses. Adaptive
    * execution plans its stages while it runs, from a context that keeps
    * them, so its copy gets a new context. Nothing is cached.
    */
  private[core] def scans(df: DataFrame, cols: Column*): () => RDD[InternalRow] = {
    val qe = df.select(cols: _*).queryExecution
    val plan = qe.executedPlan
    val conf = qe.sparkSession.sessionState.conf
    () => new SQLExecutionRDD(fresh(plan).execute(), conf)
  }

  /** A copy of `plan` with its leaves kept and every other node rebuilt
    * through `makeCopy` (`withNewChildren` would keep a node whose new
    * children are `==` to its old ones), copying each node once.
    */
  private def fresh(plan: SparkPlan): SparkPlan = {
    val copies = new java.util.IdentityHashMap[SparkPlan, SparkPlan]
    def copy(p: SparkPlan): SparkPlan = Option(copies.get(p)).getOrElse {
      val c = p match {
        case a: AdaptiveSparkPlanExec =>
          a.copy(inputPlan = copy(a.inputPlan), context = AdaptiveExecutionContext(a.context.session, a.context.qe))
        case r: ReusedExchangeExec => r.copy(child = copy(r.child).asInstanceOf[Exchange])
        case leaf if leaf.children.isEmpty => leaf
        case node => node.makeCopy(node.productIterator.map(arg).toArray)
      }
      copies.put(p, c)
      c
    }
    def arg(a: Any): AnyRef = a match {
      case child: SparkPlan => copy(child)
      case cs: Seq[_] if cs.exists(_.isInstanceOf[SparkPlan]) => cs.map(arg)
      case other => other.asInstanceOf[AnyRef]
    }
    copy(plan)
  }

  /** `name` as a scanned FK or rid column: a long. The scans cast each
    * column to the type its reader reads, as the encoders upcast it (an int
    * FK reads as a long); Spark drops a cast to a column's own type.
    */
  private[core] def key(name: String): Column = col(name).cast(LongType)

  /** `name` as a scanned feature column: an array of doubles. */
  private[core] def features(name: String): Column = col(name).cast(ArrayType(DoubleType))

  /** The target column `y` as scanned: a double. */
  private[core] def targetCol: Column = col("y").cast(DoubleType)

  /** The target `y` of the row, at field `i`. Spark reads a null as 0.0, so
    * it is rejected here, as in M, S and F alike.
    */
  private[core] def target(row: InternalRow, i: Int): Double = {
    if (row.isNullAt(i)) nullIn("y")
    row.getDouble(i)
  }

  /** Copy one joined row's S and R features, fields 0 (`xs`) and 1 (`xr`),
    * into `x`, rejecting a row that would fill it wrongly: null features,
    * widths that do not add up to the model's d = `x.length`, or a null
    * feature element.
    */
  private[core] def assemble(row: InternalRow, x: Array[Double]): Unit = {
    val xs = array(row, 0)
    val xr = array(row, 1)
    require(xs != null && xr != null && xs.numElements() + xr.numElements() == x.length,
      s"joined row has ${width(xs)} + ${width(xr)} features, expected ${x.length}")
    copy(xs, "xs", x, 0)
    copy(xr, "xr", x, xs.numElements())
  }

  /** Look up an S row of a factorized pass, fields `fk1 … fkq` then `xs`,
    * in every relation: fill `pos` with its tuple's position in each Ri,
    * copy its features into `xs` and return true, or return false for an
    * orphan row, one whose FK is null or has no Ri tuple (the inner join
    * drops it). A joined row is rejected as M and S reject it: features
    * that are null or not `xs.length` wide, or a null feature element in
    * `xs` or in a joined Ri tuple.
    */
  private[core] def probe(rels: Array[RRel], row: InternalRow, pos: Array[Int], xs: Array[Double]): Boolean = {
    val q = pos.length
    var nullR = false
    var rel = 0
    while (rel < q) {
      if (row.isNullAt(rel)) return false
      val p = rels(rel).index(row.getLong(rel))
      if (p == RidIndex.Missing) return false
      nullR |= p < 0 // a tuple with a null feature ([[RRel.apply]])
      pos(rel) = p
      rel += 1
    }
    val a = array(row, q)
    require(a != null && a.numElements() == xs.length, s"S row has ${width(a)} features, expected ${xs.length}")
    copy(a, "xs", xs, 0)
    if (nullR) nullIn("xr")
    true
  }

  /** Reject a joined row with a null feature element or target in column
    * `name`: M, S and F all stop with this message.
    */
  private def nullIn(name: String): Nothing =
    throw new IllegalArgumentException(s"null value in column $name of a joined row")

  private def array(row: InternalRow, i: Int): ArrayData = if (row.isNullAt(i)) null else row.getArray(i)

  /** Copy the doubles of `a` into `x` from `off`. Spark reads a null element
    * as 0.0, so it is rejected here, naming column `name`.
    */
  private def copy(a: ArrayData, name: String, x: Array[Double], off: Int): Unit = {
    val n = a.numElements()
    var j = 0
    while (j < n) {
      if (a.isNullAt(j)) nullIn(name)
      x(off + j) = a.getDouble(j)
      j += 1
    }
  }

  private def width(a: ArrayData): String = if (a == null) "null" else a.numElements().toString
}
