package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.InternalRow
import scala.collection.mutable.ArrayBuilder
import scala.concurrent.Await
import scala.concurrent.duration.Duration

/** Open-addressing map rid → value over primitive arrays: the dense index
  * of one attribute relation, probed once per S row without boxing a key.
  * Holds at most `n` keys (capacity ≥ 2n, linear probing); a value is any
  * Int but [[RidIndex.Missing]].
  */
private[core] final class RidIndex(n: Int) extends Serializable {
  import RidIndex.Missing
  private val mask = Integer.highestOneBit(math.max(n, 1) * 2) * 2 - 1
  private val keys = new Array[Long](mask + 1)
  private val vals = Array.fill(mask + 1)(Missing)

  @inline private def find(rid: Long): Int = {
    var h = java.lang.Long.hashCode(rid * 0x9E3779B97F4A7C15L) & mask
    while (vals(h) != Missing && keys(h) != rid) h = (h + 1) & mask
    h
  }

  /** The value of `rid`, or [[RidIndex.Missing]] when the relation has no such tuple. */
  def apply(rid: Long): Int = vals(find(rid))

  /** Map `rid` to `v`, unless it is already mapped; returns the earlier
    * value, or [[RidIndex.Missing]] when `rid` is new.
    */
  def put(rid: Long, v: Int): Int = {
    val h = find(rid)
    val prev = vals(h)
    if (prev == Missing) { keys(h) = rid; vals(h) = v }
    prev
  }
}

private[core] object RidIndex {
  val Missing: Int = -1
}

/** The tuples of one partition of Ri, packed by the task that read them, in
  * row order: tuple `t` has key `rids(t)` and `widths(t)` features (−1 when
  * they are null), stored one after another in `x`. `nulls` lists, in
  * ascending order, the tuples with a null feature element (stored as 0.0).
  */
private[core] final case class RPart(rids: Array[Long], widths: Array[Int], x: Array[Double],
                                     nulls: Array[Int])

/** One collected attribute relation Ri, checked and indexed once on the
  * driver before any S pass ([[RRel.apply]]): tuple `pos` is the `pos`-th
  * collected row, its features are `x(pos·width until (pos + 1)·width)` of
  * one flat array, and `index` maps each rid to its position, or to
  * −2 − position for a tuple with a null feature element, which a joined
  * row may not read. The factorized trainers broadcast the whole relation
  * once per run.
  */
private[core] final class RRel private (val name: String, val n: Int, val width: Int,
                                        val index: RidIndex, val x: Array[Double]) extends Serializable {

  /** Ranges of at least 64 positions (about 64 ranges at most) for the
    * driver's parallel loops over this relation.
    */
  def chunks: Seq[Range] = {
    val size = math.max(64, n / 64)
    (0 until n by size).map(from => from until math.min(n, from + size))
  }
}

private[core] object RRel {
  /** S's FK columns: Ri is referenced by `fk<i>`, for a binary join (q = 1) too. */
  def fkCols(q: Int): Seq[String] = (1 to q).map(i => s"fk$i")

  /** Check and index the packed tuples of relation `name`, its partitions
    * in order. Input the inner join would not define as a key lookup — an
    * empty relation, a duplicate rid, null or ragged features — is rejected
    * here, naming the relation and the key. A tuple with a null feature
    * element is indexed as such: it fails the row that joins it, as in M
    * and S, and otherwise trains like the inner join, which never reads it.
    */
  def apply(name: String, parts: Seq[RPart]): RRel = {
    val n = parts.map(_.rids.length).sum
    require(n > 0, s"relation $name is empty")
    val head = parts.find(_.rids.nonEmpty).get
    val width = math.max(head.widths(0), 0) // a null head fails below
    val index = new RidIndex(n)
    val x = new Array[Double](n * width)
    var pos = 0
    parts.foreach { p =>
      var from = 0 // of tuple t in p.x
      var nullAt = 0 // next entry of p.nulls
      p.rids.indices.foreach { t =>
        val rid = p.rids(t)
        require(p.widths(t) >= 0, s"relation $name: rid $rid has null features")
        require(p.widths(t) == width,
          s"relation $name: rid $rid has ${p.widths(t)} features, expected $width (as rid ${head.rids(0)})")
        val hasNull = nullAt < p.nulls.length && p.nulls(nullAt) == t
        if (hasNull) nullAt += 1
        val prev = index.put(rid, if (hasNull) -2 - pos else pos)
        require(prev == RidIndex.Missing,
          s"relation $name has duplicate rid $rid (rows ${if (prev < 0) -2 - prev else prev} and $pos)")
        System.arraycopy(p.x, from, x, pos * width, width)
        from += width
        pos += 1
      }
    }
    new RRel(name, n, width, index, x)
  }

  /** R1 … Rq in join order, from rows already collected as (rid, xr). */
  def all(rRows: Seq[Array[(Long, Array[Double])]]): Array[RRel] =
    rRows.zipWithIndex.map { case (rows, i) =>
      val xrs = rows.map(_._2)
      RRel(s"R${i + 1}", Seq(RPart(rows.map(_._1), xrs.map(xr => if (xr == null) -1 else xr.length),
        xrs.filter(_ != null).flatten, Array.emptyIntArray)))
    }.toArray

  /** Read each R(rid, xr) to the driver (nRi ≪ nS) with one job that packs
    * every partition into one [[RPart]], evaluate `meanwhile` while the
    * jobs run, then check and index each relation on the driver. The jobs
    * are started from the calling thread, so they run in its job group; if
    * `meanwhile` or a job fails, the other jobs are cancelled.
    */
  def collect[A](rs: Seq[DataFrame])(meanwhile: => A): (Array[RRel], A) = {
    val jobs = rs.map(r => scan(r, key("rid"), features("xr")).mapPartitions(rows => Iterator.single(pack(rows)))
      .collectAsync())
    try {
      val a = meanwhile
      (jobs.zipWithIndex.map { case (job, i) => RRel(s"R${i + 1}", Await.result(job, Duration.Inf)) }.toArray, a)
    } catch { case e: Throwable => jobs.foreach(_.cancel()); throw e }
  }

  /** Pack one partition of (rid, xr) rows. A tuple with a null rid joins no
    * S row, so it is dropped here and never indexed, as in the inner join.
    */
  private def pack(rows: Iterator[InternalRow]): RPart = {
    val rids = new ArrayBuilder.ofLong
    val widths = new ArrayBuilder.ofInt
    val x = new ArrayBuilder.ofDouble
    val nulls = new ArrayBuilder.ofInt
    var t = 0
    rows.foreach { row =>
      if (!row.isNullAt(0)) {
        rids.addOne(row.getLong(0))
        if (row.isNullAt(1)) widths.addOne(-1)
        else {
          val a = row.getArray(1)
          val w = a.numElements()
          widths.addOne(w)
          var hasNull = false
          var j = 0
          while (j < w) {
            if (a.isNullAt(j)) { hasNull = true; x.addOne(0.0) } else x.addOne(a.getDouble(j))
            j += 1
          }
          if (hasNull) nulls.addOne(t)
        }
        t += 1
      }
    }
    RPart(rids.result(), widths.result(), x.result(), nulls.result())
  }
}
