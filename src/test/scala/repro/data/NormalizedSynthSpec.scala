package repro.data

import org.apache.spark.sql.Row
import org.apache.spark.sql.functions._
import repro.SparkSpec

class NormalizedSynthSpec extends SparkSpec {

  private def xsOf(r: Row, field: String = "xs"): Seq[Double] =
    r.getSeq[Double](r.fieldIndex(field))

  test("R has nR rows and dR-length feature arrays") {
    val r = NormalizedSynth.r(spark, nR = 100, dR = 7, seed = 1)
    val rows = r.collect()
    assert(rows.length == 100)
    assert(rows.forall(row => xsOf(row, "xr").length == 7))
  }

  test("R rids are 1..nR distinct") {
    val r = NormalizedSynth.r(spark, nR = 64, dR = 2, seed = 2)
    val rids = r.collect().map(_.getLong(0)).sorted
    assert(rids.toSeq == (1L to 64L))
  }

  test("S has nS rows, dS-length features, FKs inside [1, nR]") {
    val s = NormalizedSynth.s(spark, nS = 500, nR = 20, dS = 4, seed = 3)
    val rows = s.collect()
    assert(rows.length == 500)
    assert(rows.forall(row => xsOf(row).length == 4))
    val fks = rows.map(_.getLong(1))
    assert(fks.forall(fk => fk >= 1 && fk <= 20))
  }

  test("S foreign keys hit most of R (uniform spread)") {
    val s = NormalizedSynth.s(spark, nS = 2000, nR = 20, dS = 2, seed = 4)
    val distinctFk = s.select("fk1").distinct().count()
    assert(distinctFk >= 18, s"only $distinctFk of 20 keys hit")
  }

  test("generators are deterministic in the seed") {
    def snapshot(): Seq[String] =
      NormalizedSynth.s(spark, 200, 10, 3, seed = 7).collect()
        .map(r => s"${r.getLong(0)}:${xsOf(r).map(v => f"$v%.9f").mkString(",")}").sorted.toSeq
    assert(snapshot() == snapshot())
  }

  test("different seeds give different data") {
    val a = NormalizedSynth.s(spark, 100, 10, 3, seed = 1).collect().map(xsOf(_).head).sum
    val b = NormalizedSynth.s(spark, 100, 10, 3, seed = 2).collect().map(xsOf(_).head).sum
    assert(math.abs(a - b) > 1e-9)
  }

  test("withTarget adds a y column correlated with xs(0)") {
    val s = NormalizedSynth.s(spark, 1000, 10, 3, seed = 5, withTarget = true)
    assert(s.columns.toSeq == Seq("sid", "fk1", "xs", "y"))
    val rows = s.collect()
    // y = sin(xs0) + 0.1*noise: residual should be small on average.
    val resid = rows.map(r => math.abs(r.getDouble(r.fieldIndex("y")) - math.sin(xsOf(r).head)))
    assert(resid.sum / resid.length < 0.2)
  }

  test("one-hot sparse features are 0/1 with one hot per block") {
    val s = NormalizedSynth.s(spark, 300, 10, dS = 21, seed = 6, sparse = true, blockWidth = 7)
    s.collect().foreach { row =>
      val xs = xsOf(row)
      assert(xs.length == 21)
      assert(xs.forall(v => v == 0.0 || v == 1.0))
      xs.grouped(7).foreach(block => assert(block.sum == 1.0, s"block $block"))
    }
  }

  test("one-hot handles a trailing partial block") {
    val s = NormalizedSynth.s(spark, 50, 5, dS = 10, seed = 8, sparse = true, blockWidth = 4)
    s.collect().foreach { row =>
      val xs = xsOf(row)
      assert(xs.grouped(4).map(_.sum).toSeq == Seq(1.0, 1.0, 1.0)) // 4+4+2
    }
  }

  test("mixture features have spread (multiple components present)") {
    val r = NormalizedSynth.r(spark, nR = 2000, dR = 1, seed = 9, k = 5)
    val vals = r.collect().map(row => xsOf(row, "xr").head)
    val mean = vals.sum / vals.length
    val variance = vals.map(v => (v - mean) * (v - mean)).sum / vals.length
    // unit noise alone would give var ~1; component separation pushes it higher
    assert(variance > 1.5, s"variance $variance suggests a single blob")
  }

  test("multiway produces q fk columns with valid ranges and q R tables") {
    val (s, rs) = NormalizedSynth.multiway(spark, nS = 400, dS = 3,
      specs = Seq((15L, 4), (25L, 6)), seed = 10)
    assert(s.columns.toSeq == Seq("sid", "fk1", "fk2", "xs"))
    assert(rs.length == 2)
    assert(rs(0).count() == 15 && rs(1).count() == 25)
    assert(xsOf(rs(0).head(), "xr").length == 4)
    assert(xsOf(rs(1).head(), "xr").length == 6)
    val rows = s.collect()
    assert(rows.forall(r => r.getLong(1) >= 1 && r.getLong(1) <= 15))
    assert(rows.forall(r => r.getLong(2) >= 1 && r.getLong(2) <= 25))
  }

  test("multiway withTarget appends y") {
    val (s, _) = NormalizedSynth.multiway(spark, 100, 2, Seq((5L, 2)), seed = 11, withTarget = true)
    assert(s.columns.toSeq == Seq("sid", "fk1", "xs", "y"))
  }

  test("surrogate honours Table IV dimensions") {
    val dims = NormalizedSynth.table4NotSparse.find(_.name.startsWith("Walmart")).get
    assert(dims.nS == 421570L && dims.dS == 3 && dims.nR == 2340L && dims.dR == 9)
    val (s, r) = NormalizedSynth.surrogate(spark, dims, seed = 12, scale = 0.01)
    assert(s.count() == (421570 * 0.01).toLong)
    assert(r.count() == 2340)
    assert(xsOf(s.head()).length == 3)
    assert(xsOf(r.head(), "xr").length == 9)
  }

  test("Table V augmented dims follow the paper (dR 29/78/218, rr ≈ 219)") {
    val d = NormalizedSynth.table5Augmented
    assert(d.map(_.dR) == Seq(29, 78, 218))
    assert(d.forall(x => x.nS == 634133L && x.nR == 2899L && x.dS == 7))
  }

  test("sparse surrogate dims: Walmart(Sparse) is 126/175") {
    val dims = NormalizedSynth.table4Sparse.head
    assert(dims.dS == 126 && dims.dR == 175 && dims.sparse)
    val (s, r) = NormalizedSynth.surrogate(spark, dims, seed = 13, scale = 0.002)
    assert(xsOf(s.head()).length == 126)
    assert(xsOf(r.head(), "xr").length == 175)
  }

  test("movies3way shape matches the paper's setup") {
    val (s, rs) = NormalizedSynth.movies3way(spark, seed = 14, nS = 500, nR1 = 60, dR1 = 5,
      nR2 = 37, dR2 = 7)
    assert(s.columns.toSeq == Seq("sid", "fk1", "fk2", "xs"))
    assert(rs.map(_.count()) == Seq(60L, 37L))
  }
}
