package repro.core

import org.apache.spark.sql.DataFrame

/** Open-addressing map rid → position over primitive arrays: the dense index
  * of one attribute relation, probed once per S row without boxing a key.
  * Holds at most `n` keys (capacity ≥ 2n, linear probing).
  */
private[core] final class RidIndex(n: Int) extends Serializable {
  private val mask = Integer.highestOneBit(math.max(n, 1) * 2) * 2 - 1
  private val keys = new Array[Long](mask + 1)
  private val vals = Array.fill(mask + 1)(-1)

  @inline private def find(rid: Long): Int = {
    var h = java.lang.Long.hashCode(rid * 0x9E3779B97F4A7C15L) & mask
    while (vals(h) >= 0 && keys(h) != rid) h = (h + 1) & mask
    h
  }

  /** Position of `rid`, or −1 when the relation has no such tuple. */
  def apply(rid: Long): Int = vals(find(rid))

  /** Map `rid` to `pos`, unless it is already mapped; returns the earlier
    * position, or −1 when `rid` is new.
    */
  def put(rid: Long, pos: Int): Int = {
    val h = find(rid)
    val prev = vals(h)
    if (prev < 0) { keys(h) = rid; vals(h) = pos }
    prev
  }
}

/** One collected attribute relation Ri, checked and indexed once on the
  * driver before any Spark job ([[RRel.apply]]): tuple `pos` is the
  * `pos`-th collected row, its features are
  * `x(pos·width until (pos + 1)·width)` of one flat array, and `index` maps
  * each rid to its position. The factorized trainers broadcast the whole
  * relation once per run.
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
  /** S's FK columns for a multi-way join: Ri is referenced by `fk<i>`. */
  def fkCols(q: Int): Seq[String] = (1 to q).map(i => s"fk$i")

  /** S of a binary join, whose FK column `fk` references R, as the q = 1
    * case of a multi-way join: `fk` renamed to `fk1`.
    */
  def binary(s: DataFrame): DataFrame = s.withColumnRenamed("fk", fkCols(1).head)

  /** Check and index the collected rows of relation `name`. Input the inner
    * join would not define as a key lookup — an empty relation, a duplicate
    * rid, null or ragged features — is rejected here, naming the relation
    * and the key.
    */
  def apply(name: String, rows: Array[(Long, Array[Double])]): RRel = {
    require(rows.nonEmpty, s"relation $name is empty")
    val width = Option(rows.head._2).fold(0)(_.length) // a null head fails below
    val index = new RidIndex(rows.length)
    val x = new Array[Double](rows.length * width)
    rows.indices.foreach { pos =>
      val (rid, xr) = rows(pos)
      require(xr != null, s"relation $name: rid $rid has null features")
      require(xr.length == width,
        s"relation $name: rid $rid has ${xr.length} features, expected $width (as rid ${rows.head._1})")
      val prev = index.put(rid, pos)
      require(prev < 0, s"relation $name has duplicate rid $rid (rows $prev and $pos)")
      System.arraycopy(xr, 0, x, pos * width, width)
    }
    new RRel(name, rows.length, width, index, x)
  }

  /** R1 … Rq in join order. */
  def all(rRows: Seq[Array[(Long, Array[Double])]]): Array[RRel] =
    rRows.zipWithIndex.map { case (rows, i) => RRel(s"R${i + 1}", rows) }.toArray

  /** Collect each R(rid, xr) to the driver (nRi ≪ nS), then check and index it. */
  def collect(rs: Seq[DataFrame]): Array[RRel] =
    all(rs.map { r =>
      import r.sparkSession.implicits._
      r.select("rid", "xr").as[(Long, Array[Double])].collect()
    })
}
