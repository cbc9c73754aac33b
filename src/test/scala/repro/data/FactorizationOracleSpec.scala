package repro.data

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

/** DuckDB-oracle checks of the paper's core factorization identity,
  * expressed in SQL: aggregations computed over the *base tables with a
  * grouped-by-FK reduction* (how F-GMM/F-NN compute) must equal the same
  * aggregation computed over the *denormalized join* (how M-/S- compute).
  */
class FactorizationOracleSpec extends SparkSpec {

  // Scalar projections of a normalized pair (Oracle compares scalar columns).
  private lazy val (sDf, rDf) = {
    val (s, r) = NormalizedSynth.binary(spark, nS = 2000, nR = 40, dS = 3, dR = 3, seed = 42)
    (s.select(col("sid"), col("fk1"),
              element_at(col("xs"), 1) as "xs0", element_at(col("xs"), 2) as "xs1"),
     r.select(col("rid"),
              element_at(col("xr"), 1) as "xr0", element_at(col("xr"), 2) as "xr1"))
  }

  test("join cardinality: every S tuple matches exactly one R tuple (N = nS)") {
    val joined = sDf.join(rDf, sDf("fk1") === rDf("rid"))
    val sparkCnt = joined.agg(count(lit(1)) as "c")
    Oracle.assertEquivalent(
      sparkCnt,
      "SELECT COUNT(*) AS c FROM s JOIN r ON s.fk1 = r.rid",
      "s" -> sDf, "r" -> rDf)
    assert(joined.count() == 2000)
  }

  test("factorized sum over R features equals join-side sum (M-step mean identity)") {
    // F-side: sum_r (count of matching S rows) * xr0  ==  sum over join of xr0
    val grouped = sDf.groupBy("fk1").agg(count(lit(1)) as "g")
    val factorized = grouped.join(rDf, grouped("fk1") === rDf("rid"))
      .agg(sum(col("g") * col("xr0")) as "v")
    Oracle.assertEquivalent(
      factorized,
      "SELECT SUM(CAST(r.xr0 AS DOUBLE)) AS v FROM s JOIN r ON s.fk1 = r.rid",
      "s" -> sDf, "r" -> rDf)
  }

  test("factorized weighted cross-product equals join-side product sum (Σ UR-block identity)") {
    // F-side: per-fk sum of xs0, then multiplied by xr0 once per R tuple.
    val grouped = sDf.groupBy("fk1").agg(sum(col("xs0")) as "sx")
    val factorized = grouped.join(rDf, grouped("fk1") === rDf("rid"))
      .agg(sum(col("sx") * col("xr0")) as "v")
    Oracle.assertEquivalent(
      factorized,
      "SELECT SUM(CAST(s.xs0 AS DOUBLE) * CAST(r.xr0 AS DOUBLE)) AS v " +
        "FROM s JOIN r ON s.fk1 = r.rid",
      "s" -> sDf, "r" -> rDf)
  }

  test("factorized R-only quadratic term equals join-side (LR-block identity)") {
    val grouped = sDf.groupBy("fk1").agg(count(lit(1)) as "g")
    val factorized = grouped.join(rDf, grouped("fk1") === rDf("rid"))
      .agg(sum(col("g") * col("xr0") * col("xr1")) as "v")
    Oracle.assertEquivalent(
      factorized,
      "SELECT SUM(CAST(r.xr0 AS DOUBLE) * CAST(r.xr1 AS DOUBLE)) AS v " +
        "FROM s JOIN r ON s.fk1 = r.rid",
      "s" -> sDf, "r" -> rDf)
  }

  test("per-fk grouped statistics match the oracle's grouped view") {
    val grouped = sDf.groupBy("fk1").agg(
      count(lit(1)).cast("double") as "g",
      sum(col("xs0")) as "sx")
    Oracle.assertEquivalent(
      grouped,
      "SELECT fk1, CAST(COUNT(*) AS DOUBLE) AS g, SUM(CAST(xs0 AS DOUBLE)) AS sx " +
        "FROM s GROUP BY fk1",
      "s" -> sDf)
  }

  test("S-side-only aggregation (UL-block) matches the oracle over the join") {
    // UL involves only S features; redundancy plays no role, but the
    // factorized plan computes it from S alone — equal either way.
    val factorized = sDf.agg(sum(col("xs0") * col("xs1")) as "v")
    Oracle.assertEquivalent(
      factorized,
      "SELECT SUM(CAST(s.xs0 AS DOUBLE) * CAST(s.xs1 AS DOUBLE)) AS v " +
        "FROM s JOIN r ON s.fk1 = r.rid",
      "s" -> sDf, "r" -> rDf)
  }
}
