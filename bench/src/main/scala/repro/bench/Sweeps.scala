package repro.bench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.bench.Harness.SweepRow
import repro.data.NormalizedSynth

/** Scaled-down reproductions of the synthetic parameter sweeps behind the
  * paper's Figures 3–6 (parameter grids of Tables II/III). Figures are out
  * of scope, but the text quotes speedup factors from them — these sweeps
  * verify the *trends*: F's advantage grows with rr, dR (dR1) and K / nh.
  *
  * Sweeps compare S vs F only: the paper's figures show M ≈ S throughout
  * (same compute, slightly different I/O), and Table VI/VII benches cover M.
  * Every point, binary or Movies-3way, GMM or NN, runs through [[point]].
  */
object Sweeps {

  /** One point: cache S and R1 … Rq, time S and F of `family` at `width`
    * from the same init and require that their final objectives agree.
    */
  private def point(family: Family, width: Int, d: Int, iters: Int, seed: Long, param: String, value: Int)(
      tables: (DataFrame, Seq[DataFrame])): SweepRow = {
    val sC = tables._1.cache(); sC.count(): Unit
    val rsC = tables._2.map { r => val c = r.cache(); c.count(); c }
    val init = family.init(width, d, seed)
    val (objS, tS) = Harness.timed(family.s(sC, rsC, init, iters))
    val (objF, tF) = Harness.timed(family.f(sC, rsC, init, iters))
    require(family.agree(objS.last, objF.last), s"S/F diverged at $param=$value: ${objS.last} vs ${objF.last}")
    sC.unpersist(); rsC.foreach(_.unpersist())
    SweepRow(param, value.toString, tS, tF)
  }

  /** A binary point: nS S rows with dS = 5 over nR = 1000 R tuples. */
  private def binary(spark: SparkSession, family: Family, param: String, value: Int, nS: Long, dR: Int,
                     width: Int, iters: Int, seed: Long): SweepRow = {
    val (s, r) = NormalizedSynth.binary(spark, nS, 1000L, 5, dR, seed, withTarget = family.withTarget)
    point(family, width, 5 + dR, iters, seed, param, value)((s, Seq(r)))
  }

  /** A Movies-3way point with nS large enough that per-tuple compute, not
    * job overhead, dominates.
    */
  private def movies3way(spark: SparkSession, family: Family, dR1: Int, iters: Int, seed: Long): SweepRow =
    point(family, family.width, 1 + dR1 + 21, iters, seed, "dR1", dR1)(
      NormalizedSynth.movies3way(spark, seed, nS = 300000L, dR1 = dR1, withTarget = family.withTarget))

  /** Fig 3(a): vary rr = nS/nR at nR=1000, dS=5, dR=15, K=5. Starts at
    * rr=2 where the paper predicts little-to-no advantage (crossover at
    * rr≈50–200, §VII-C2), so the rising trend is structural, not noise.
    */
  def gmmVaryRr(spark: SparkSession, iters: Int = Harness.gmmIters,
                rrs: Seq[Int] = Seq(2, 20, 200)): Seq[SweepRow] =
    rrs.map(rr => binary(spark, Gmm, "rr", rr, nS = rr * 1000L, dR = 15, Gmm.width, iters, seed = 11))

  /** Fig 3(b): vary dR at nS=1e5 (scaled from 1e6), nR=1000, dS=5, K=5. */
  def gmmVaryDr(spark: SparkSession, iters: Int = Harness.gmmIters,
                dRs: Seq[Int] = Seq(5, 15, 30, 60)): Seq[SweepRow] =
    dRs.map(dR => binary(spark, Gmm, "dR", dR, nS = 100000L, dR = dR, Gmm.width, iters, seed = 12))

  /** Fig 3(c): vary K at nS=1e5, nR=1000, dS=5, dR=15. */
  def gmmVaryK(spark: SparkSession, iters: Int = Harness.gmmIters,
               ks: Seq[Int] = Seq(2, 5, 8)): Seq[SweepRow] =
    ks.map(k => binary(spark, Gmm, "K", k, nS = 100000L, dR = 15, k, iters, seed = 13))

  /** Fig 4(b)-style multi-way sweep: vary dR1 on a Movies-3way-shaped join. */
  def gmmMultiVaryDr1(spark: SparkSession, iters: Int = Harness.gmmIters,
                      dR1s: Seq[Int] = Seq(10, 40, 80)): Seq[SweepRow] =
    dR1s.map(dR1 => movies3way(spark, Gmm, dR1, iters, seed = 14))

  /** Fig 5(a): vary rr at nR=1000, dS=5, dR=15, nh=50. Starts at rr=2 for
    * the same crossover reason as [[gmmVaryRr]].
    */
  def nnVaryRr(spark: SparkSession, epochs: Int = Harness.nnEpochs,
               rrs: Seq[Int] = Seq(2, 20, 200)): Seq[SweepRow] =
    rrs.map(rr => binary(spark, Nn, "rr", rr, nS = rr * 1000L, dR = 15, Nn.width, epochs, seed = 15))

  /** Fig 5(b): vary dR at nS=1e5, nR=1000, dS=5, nh=50. */
  def nnVaryDr(spark: SparkSession, epochs: Int = Harness.nnEpochs,
               dRs: Seq[Int] = Seq(5, 15, 30, 60)): Seq[SweepRow] =
    dRs.map(dR => binary(spark, Nn, "dR", dR, nS = 100000L, dR = dR, Nn.width, epochs, seed = 16))

  /** Fig 5(c): vary nh at nS=1e5, nR=1000, dS=5, dR=15. */
  def nnVaryNh(spark: SparkSession, epochs: Int = Harness.nnEpochs,
               nhs: Seq[Int] = Seq(25, 50, 100)): Seq[SweepRow] =
    nhs.map(nh => binary(spark, Nn, "nh", nh, nS = 100000L, dR = 15, nh, epochs, seed = 17))

  /** Fig 6(b)-style multi-way sweep: vary dR1, nh=50. */
  def nnMultiVaryDr1(spark: SparkSession, epochs: Int = Harness.nnEpochs,
                     dR1s: Seq[Int] = Seq(10, 40, 80)): Seq[SweepRow] =
    dR1s.map(dR1 => movies3way(spark, Nn, dR1, epochs, seed = 18))
}
