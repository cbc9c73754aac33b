package repro.bench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.bench.Harness.AlgoRow
import repro.data.{NormalizedSynth, Store}
import repro.data.NormalizedSynth.DatasetDims

/** Reproduction of paper **Tables VI and VII** — training time (seconds)
  * of M, S and F for GMM and NN on the real-dataset surrogates (Tables
  * IV/V dims) plus Movies-3way. Paper times are recorded beside ours so the
  * *shape* (who wins, by what factor) can be diffed; absolute values differ
  * by design (Spark cluster-in-a-box vs the paper's Python/PostgreSQL
  * stack, and nS scaled by BENCH_SCALE). Every row, binary or Movies-3way,
  * GMM or NN, runs through [[row]].
  */
object PaperTables {

  /** One paper table: the family it trains, its binary datasets in paper
    * order (Movies-3way closes the table), the paper's seconds per dataset
    * (M, S, F) and the seed of its rows.
    */
  final case class Table(family: Family, binaries: Seq[DatasetDims],
                         paper: Map[String, (Double, Double, Double)], seed: Long)

  /** Paper Table VI: GMM on the Not Sparse and augmented surrogates. */
  val Six: Table = Table(Gmm, NormalizedSynth.table4NotSparse ++ NormalizedSynth.table5Augmented, Map(
    "Expedia1(Not Sparse)" -> (2140.1, 2244.3, 1014.2),
    "Expedia2(Not Sparse)" -> (1221.1, 1248.5, 593.1),
    "Walmart (Not Sparse)" -> (595.9, 602.9, 212.1),
    "Movies (Not Sparse)"  -> (1691.7, 1755.8, 514.6),
    "Expedia3 (Augmented)" -> (1673.5, 1750.9, 639.3),
    "Expedia4 (Augmented)" -> (6129.6, 6311.4, 1843.3),
    "Expedia5 (Augmented)" -> (23270.6, 23375.1, 9779.3),
    "Movies-3way"          -> (2455.3, 2883.1, 715.1),
  ), seed = 1234)

  /** Paper Table VII: NN on the Sparse surrogates. */
  val Seven: Table = Table(Nn, NormalizedSynth.table4Sparse, Map(
    "Walmart(Sparse)" -> (743.1, 845.5, 104.1),
    "Movies (Sparse)" -> (437.4, 507.2, 112.3),
    "Movies-3way"     -> (890.1, 1022.3, 202.1),
  ), seed = 4321)

  /** One row: write S and R1 … Rq to a fresh store, time M, S and F of
    * `family` from the same init, require that their final objectives agree
    * (exactness in the large) and set the paper's seconds beside ours.
    */
  private def row(spark: SparkSession, family: Family, name: String, d: Int, seed: Long, iters: Int,
                  paper: (Double, Double, Double))(tables: (DataFrame, Seq[DataFrame])): AlgoRow = {
    val store = Store.temp(spark, "paper-table")
    try {
      val s = store.write("s", tables._1)
      val rs = tables._2.zipWithIndex.map { case (r, i) => store.write(s"r${i + 1}", r) }
      val init = family.init(family.width, d, seed)
      val (objM, tM) = Harness.timed(family.m(store, s, rs, init, iters))
      val (objS, tS) = Harness.timed(family.s(s, rs, init, iters))
      val (objF, tF) = Harness.timed(family.f(s, rs, init, iters))
      val last = Seq(objM, objS, objF).map(_.last)
      require(last.forall(family.agree(last.head, _)),
        s"$name: algorithms diverged, final objectives = ${last.mkString(", ")}")
      val (pM, pS, pF) = paper
      AlgoRow(name, tM, tS, tF, pM, pS, pF)
    } finally store.close()
  }

  /** A binary-join surrogate row; the paper's seconds default to `table`'s. */
  def runBinary(spark: SparkSession, table: Table, dims: DatasetDims, seed: Long, scale: Double, iters: Int,
                paper: Option[(Double, Double, Double)] = None): AlgoRow = {
    val (s, r) = NormalizedSynth.surrogate(spark, dims, seed, scale, table.family.withTarget)
    row(spark, table.family, dims.name, dims.dS + dims.dR, seed, iters,
      paper.getOrElse(table.paper(dims.name)))((s, Seq(r)))
  }

  /** Movies-3way: the q = 2 join S_ratings ⋈ R1_users ⋈ R2_movies. */
  def runMovies3way(spark: SparkSession, table: Table, seed: Long, scale: Double, iters: Int,
                    dR1: Int = 20): AlgoRow =
    row(spark, table.family, "Movies-3way", 1 + dR1 + 21, seed, iters, table.paper("Movies-3way"))(
      NormalizedSynth.movies3way(spark, seed, nS = math.max(1L, (1000209L * scale).toLong), dR1 = dR1,
        withTarget = table.family.withTarget))

  /** JIT warmup: run M, S and F once on a small pair so timed rows don't
    * charge compilation to whichever algorithm runs first.
    */
  def warmup(spark: SparkSession, table: Table): Unit =
    runBinary(spark, table, DatasetDims("warmup", 5000L, 4, 100L, 6), seed = 1, scale = 1.0, iters = 1,
      paper = Some((1.0, 1.0, 1.0))): Unit

  /** All of `table` in paper order, at BENCH_SCALE and the family's
    * iterations.
    */
  def runAll(spark: SparkSession, table: Table): Seq[AlgoRow] = {
    warmup(spark, table)
    val iters = table.family.iters
    table.binaries.map(d => runBinary(spark, table, d, table.seed, Harness.scale, iters)) :+
      runMovies3way(spark, table, table.seed, Harness.scale, iters)
  }
}
