package repro.core.gmm

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.core.{RRel, withBroadcast}
import repro.core.nn.{FNn, NnModel}
import repro.data.{NormalizedSynth, Store}
import repro.linalg.TestKernels._

/** The paper's central claim (§V-B end): M-GMM, S-GMM and F-GMM produce the
  * *same* model — the decomposition is exact. We train all three from the
  * same init on the same normalized pair and compare parameters after every
  * iteration, plus multi-way and qualitative-accuracy checks.
  */
class GmmEquivalenceSpec extends SparkSpec {

  private val Tol = 1e-7

  /** S-GMM over the inner join and the F-GMM engine agree after each of
    * `iters` EM iterations from `init`, and so does M-GMM over T
    * materialized in `store`, if given. S's column `fk<i>` references
    * `rs(i - 1)`.
    */
  private def assertMultiPerIteration(s: DataFrame, rs: Seq[DataFrame], init: GmmModel,
                                      dS: Int, iters: Int = 2, store: Option[Store] = None): Unit = {
    import spark.implicits._
    val rRows = rs.map(_.select("rid", "xr").as[(Long, Array[Double])].collect())
    val t = SGmm.joinedMulti(s, rs)
    val ts = t +: store.map(_.write("t_per_iteration", t)).toSeq // S, then M
    var ms = ts.map(_ => init)
    var mF = init
    (1 to iters).foreach { it =>
      val (nextF, llF) = FGmmMulti.emStep(s, rRows, mF, dS)
      ms = ts.zip(ms).map { case (tt, m) =>
        val (next, ll) = DenormGmm.emStep(tt, m)
        assert(math.abs(ll - llF) / math.abs(ll) < Tol, s"iter $it loglik: $ll vs $llF")
        assert(next.maxAbsDiff(nextF) < Tol, s"iter $it params diverged")
        next
      }
      mF = nextF
    }
  }

  /** M-GMM over T materialized in `store`, S-GMM and F-GMM, each trained
    * for 1 … `iters` iterations from `init` through `train`, agree after
    * every iteration. This path reads R as the trainers do, so it covers R
    * rows that cannot be collected as (rid, xr) tuples: null rids and null
    * feature elements.
    */
  private def assertTrainPerIteration(s: DataFrame, rs: Seq[DataFrame], init: GmmModel, store: Store,
                                      iters: Int = 2): Unit =
    (1 to iters).foreach { n =>
      val fitF = FGmmMulti.train(s, rs, init, n)
      Seq(MGmm.trainMulti(store, s, rs, init, n), SGmm.trainMulti(s, rs, init, n)).foreach { fit =>
        fit.logliks.zip(fitF.logliks).foreach { case (a, b) =>
          assert(math.abs(a - b) / math.abs(a) < Tol, s"iter $n loglik: $a vs $b")
        }
        assert(fit.model.maxAbsDiff(fitF.model) < Tol, s"iter $n params diverged")
      }
    }

  /** Every run fails with an IllegalArgumentException carrying `msg`,
    * found through the cause chain: a task's failure reaches the driver
    * wrapped in Spark's own exception.
    */
  private def assertFailsWith(msg: String, runs: (() => Any)*): Unit = runs.foreach { run =>
    val e = intercept[Exception](run())
    assert(Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null).exists(c =>
      c.isInstanceOf[IllegalArgumentException] && c.getMessage.contains(msg)), s"$msg: $e")
  }

  private lazy val (sDf, rDf) =
    NormalizedSynth.binary(spark, nS = 3000, nR = 30, dS = 3, dR = 4, seed = 77, k = 3)

  test("S-GMM and F-GMM produce identical models per iteration (binary)") {
    val init = GmmModel.init(k = 3, d = 7, seed = 5)
    var mS = init
    var mF = init
    import spark.implicits._
    val rRows = rDf.select("rid", "xr").as[(Long, Array[Double])].collect()
    val t = DenormGmm.joined(sDf, rDf)
    (1 to 3).foreach { it =>
      val (nextS, llS) = DenormGmm.emStep(t, mS)
      val (nextF, llF) = FGmm.emStep(sDf, rRows, mF, dS = 3, dR = 4)
      assert(math.abs(llS - llF) / math.abs(llS) < Tol, s"iter $it loglik: $llS vs $llF")
      assert(nextS.maxAbsDiff(nextF) < Tol, s"iter $it params diverged")
      mS = nextS; mF = nextF
    }
  }

  test("orphan FKs are dropped like the inner join (binary)") {
    import org.apache.spark.sql.functions._
    // every 97th row references an R tuple that does not exist
    val s = sDf.withColumn("fk1", when(col("sid") % 97 === 0, lit(999L)).otherwise(col("fk1")))
    val orphans = s.where(col("fk1") === 999L).count()
    assert(orphans > 0)
    val init = GmmModel.init(k = 3, d = 7, seed = 5)
    val acc = withBroadcast(spark.sparkContext, RRel.collect(Seq(rDf))(())._1)(
      FGmmMulti.pass(FGmmMulti.sRows(s, 1), _, init, dS = 3))
    assert(acc.orphans == orphans && acc.s.n == 3000 - orphans)
    assertMultiPerIteration(s, Seq(rDf), init, dS = 3)
  }

  test("M-GMM (materialized) equals S-GMM and F-GMM end to end") {
    val store = Store.temp(spark)
    try {
      val init = GmmModel.init(k = 3, d = 7, seed = 6)
      val s = store.write("s", sDf)
      val r = store.write("r", rDf)
      val fitM = MGmm.train(store, s, r, init, iters = 2)
      val fitS = SGmm.train(s, r, init, iters = 2)
      val fitF = FGmm.train(s, r, init, iters = 2)
      assert(fitM.model.maxAbsDiff(fitS.model) < Tol)
      assert(fitM.model.maxAbsDiff(fitF.model) < Tol)
      assert(fitM.logliks.zip(fitF.logliks).forall { case (a, b) =>
        math.abs(a - b) / math.abs(a) < Tol })
    } finally store.close()
  }

  test("ragged or null xs rows fail in M, S and F, naming the widths") {
    import org.apache.spark.sql.functions._
    val store = Store.temp(spark)
    try {
      val init = GmmModel.init(k = 3, d = 7, seed = 5)
      Seq((slice(col("xs"), 1, 2), "joined row has 2 + 4 features, expected 7",
           "S row has 2 features, expected 3"),
          (lit(null).cast("array<double>"), "joined row has null + 4 features, expected 7",
           "S row has null features, expected 3")).foreach { case (xs, denormMsg, fMsg) =>
        val s = sDf.withColumn("xs", when(col("sid") === 5, xs).otherwise(col("xs")))
        Seq(denormMsg -> (() => MGmm.train(store, s, rDf, init, iters = 1)),
            denormMsg -> (() => SGmm.train(s, rDf, init, iters = 1)),
            fMsg -> (() => FGmm.train(s, rDf, init, iters = 1))).foreach { case (msg, run) =>
          val e = intercept[Exception](run())
          assert(Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null).exists(c =>
            c.isInstanceOf[IllegalArgumentException] && c.getMessage.contains(msg)), s"$msg: $e")
        }
      }
    } finally store.close()
  }

  test("an empty component (N_k = 0) fails on the driver with one message in M, S and F") {
    val store = Store.temp(spark)
    try {
      val init0 = GmmModel.init(k = 3, d = 7, seed = 5)
      // every responsibility of component 2 underflows to exactly 0
      val init = init0.copy(means = init0.means.updated(2, Array.fill(7)(1e3)))
      val msgs = Seq(() => MGmm.train(store, sDf, rDf, init, iters = 1),
                     () => SGmm.train(sDf, rDf, init, iters = 1),
                     () => FGmm.train(sDf, rDf, init, iters = 1))
        .map(run => intercept[IllegalArgumentException](run()).getMessage)
      assert(msgs.distinct.size == 1 && msgs.head.contains("GMM component 2 is empty"), msgs)
    } finally store.close()
  }

  test("non-finite features fail with one message in M, S and F; a NaN tuple no S row joins is dropped") {
    import org.apache.spark.sql.functions._
    val store = Store.temp(spark)
    try {
      val init = GmmModel.init(k = 3, d = 7, seed = 5)
      def vec(v: Double*) = array(v.map(lit): _*)
      val nanXs = sDf.withColumn("xs",
        when(col("sid") === 5, vec(Double.NaN, 0.0, 0.0)).otherwise(col("xs")))
      val infXr = rDf.withColumn("xr",
        when(col("rid") === 3, vec(Double.PositiveInfinity, 0.0, 0.0, 0.0)).otherwise(col("xr")))
      val msgs = Seq(nanXs -> rDf, sDf -> infXr).flatMap { case (s, r) =>
        Seq(() => MGmm.train(store, s, r, init, iters = 1),
            () => SGmm.train(s, r, init, iters = 1),
            () => FGmm.train(s, r, init, iters = 1))
          .map(run => intercept[IllegalArgumentException](run()).getMessage)
      }
      assert(msgs.distinct.size == 1 && msgs.head.contains("non-finite features"), msgs)
      // a tuple no S row references is never read (inner join): training succeeds
      val nanTuple = rDf.union(
        spark.range(999, 1000).select(col("id") as "rid", vec(Seq.fill(4)(Double.NaN): _*) as "xr"))
      assertMultiPerIteration(sDf, Seq(nanTuple), init, dS = 3, store = Some(store))
    } finally store.close()
  }

  test("an empty join (every FK an orphan) fails on the driver in M, S and F, binary and q=2") {
    import org.apache.spark.sql.functions._
    val store = Store.temp(spark)
    try {
      val s = sDf.withColumn("fk1", lit(999L))
      val init = GmmModel.init(k = 3, d = 7, seed = 5)
      val (sM0, rsM) = NormalizedSynth.multiway(spark, nS = 500, dS = 2,
        specs = Seq((10L, 3), (8L, 4)), seed = 35, k = 2)
      val sM = sM0.withColumn("fk1", lit(999L))
      val initM = GmmModel.init(k = 2, d = 9, seed = 14)
      val msgs = Seq(() => MGmm.train(store, s, rDf, init, iters = 1),
                     () => SGmm.train(s, rDf, init, iters = 1),
                     () => FGmm.train(s, rDf, init, iters = 1),
                     () => MGmm.trainMulti(store, sM, rsM, initM, iters = 1),
                     () => SGmm.trainMulti(sM, rsM, initM, iters = 1),
                     () => FGmmMulti.train(sM, rsM, initM, iters = 1))
        .map(run => intercept[IllegalArgumentException](run()).getMessage)
      assert(msgs.distinct.size == 1 && msgs.head.contains("the join is empty"), msgs)
    } finally store.close()
  }

  test("an S with no rows or no partitions fails like an empty join in M, S and F") {
    import org.apache.spark.sql.functions._
    val store = Store.temp(spark)
    try {
      val init = GmmModel.init(k = 3, d = 7, seed = 5)
      Seq(sDf.limit(0), sDf.where(lit(false))).foreach { s =>
        val msgs = Seq(() => MGmm.train(store, s, rDf, init, iters = 1),
                       () => SGmm.train(s, rDf, init, iters = 1),
                       () => FGmm.train(s, rDf, init, iters = 1))
          .map(run => intercept[IllegalArgumentException](run()).getMessage)
        assert(msgs.distinct.size == 1 && msgs.head.contains("the join is empty"), msgs)
      }
    } finally store.close()
  }

  test("repeat runs of M, S and F give bit-identical log-likelihoods and models") {
    val store = Store.temp(spark)
    try {
      val init = GmmModel.init(k = 3, d = 7, seed = 6)
      def bits(fit: GmmFit): Seq[Double] =
        fit.logliks ++ (Seq(fit.model.weights) ++ fit.model.means ++ fit.model.covs.map(_.a)).flatMap(_.toSeq)
      Seq(() => MGmm.train(store, sDf, rDf, init, iters = 2),
          () => SGmm.train(sDf, rDf, init, iters = 2),
          () => FGmm.train(sDf, rDf, init, iters = 2)).foreach { run =>
        assert(bits(run()) == bits(run()))
      }
    } finally store.close()
  }

  test("every S row on one R tuple: M, S and F agree (binary and q=2)") {
    import org.apache.spark.sql.functions._
    // One R tuple has no spread, so the R block of every covariance is
    // singular after one step (the ridge alone keeps it positive definite):
    // a second step would compare roundoff scaled by 1e9.
    val store = Store.temp(spark)
    try {
      assertMultiPerIteration(sDf.withColumn("fk1", lit(7L)), Seq(rDf),
        GmmModel.init(k = 3, d = 7, seed = 5), dS = 3, iters = 1, Some(store))
      val (s, rs) = NormalizedSynth.multiway(spark, nS = 1500, dS = 2,
        specs = Seq((20L, 3), (15L, 4)), seed = 31, k = 3)
      assertMultiPerIteration(s.withColumn("fk1", lit(3L)).withColumn("fk2", lit(5L)), rs,
        GmmModel.init(k = 3, d = 9, seed = 10), dS = 2, iters = 1, Some(store))
    } finally store.close()
  }

  test("nR > nS, most R tuples never joined: M, S and F agree per iteration (binary and q=2)") {
    val store = Store.temp(spark)
    try {
      val (sB, rB) = NormalizedSynth.binary(spark, nS = 400, nR = 3000, dS = 3, dR = 4, seed = 79, k = 3)
      assertMultiPerIteration(sB, Seq(rB), GmmModel.init(k = 3, d = 7, seed = 5),
        dS = 3, store = Some(store))
      val (s, rs) = NormalizedSynth.multiway(spark, nS = 400, dS = 2,
        specs = Seq((2000L, 3), (1500L, 4)), seed = 41, k = 3)
      assertMultiPerIteration(s, rs, GmmModel.init(k = 3, d = 9, seed = 10), dS = 2,
        store = Some(store))
    } finally store.close()
  }

  test("a null FK is dropped like the inner join: M, S and F agree per iteration (binary and q=2)") {
    import org.apache.spark.sql.functions._
    val store = Store.temp(spark)
    try {
      // a tuple with rid 0, which no FK references: a null FK must not read as 0
      def withRid0(r: DataFrame, dR: Int) =
        r.union(spark.range(0, 1).select(col("id") as "rid", array(Seq.fill(dR)(lit(0.5)): _*) as "xr"))
      val s = sDf.withColumn("fk1", when(col("sid") === 5, lit(null).cast("long")).otherwise(col("fk1")))
      val r = withRid0(rDf, 4)
      val init = GmmModel.init(k = 3, d = 7, seed = 5)
      val acc = withBroadcast(spark.sparkContext, RRel.collect(Seq(r))(())._1)(
        FGmmMulti.pass(FGmmMulti.sRows(s, 1), _, init, dS = 3))
      assert(acc.orphans == 1 && acc.s.n == 2999)
      assertTrainPerIteration(s, Seq(r), init, store)
      val (sM0, rsM) = NormalizedSynth.multiway(spark, nS = 1500, dS = 2,
        specs = Seq((20L, 3), (15L, 4)), seed = 31, k = 3)
      val sM = sM0.withColumn("fk2", when(col("sid") % 97 === 0, lit(null).cast("long")).otherwise(col("fk2")))
      assertTrainPerIteration(sM, Seq(rsM(0), withRid0(rsM(1), 4)), GmmModel.init(k = 3, d = 9, seed = 10), store)
    } finally store.close()
  }

  test("an R tuple with a null rid joins no S row: M, S and F agree per iteration") {
    import org.apache.spark.sql.functions._
    val store = Store.temp(spark)
    try {
      // two of them, so that rids read as 0 would collide
      val r = rDf.withColumn("rid", when(col("rid") < 3, lit(null).cast("long")).otherwise(col("rid")))
      assertTrainPerIteration(sDf, Seq(r), GmmModel.init(k = 3, d = 7, seed = 5), store)
    } finally store.close()
  }

  test("a null feature element fails with one message in M, S and F; a tuple no S row joins is dropped") {
    import org.apache.spark.sql.functions._
    val store = Store.temp(spark)
    try {
      val init = GmmModel.init(k = 3, d = 7, seed = 5)
      val nul = lit(null).cast("double")
      val nullXs = sDf.withColumn("xs",
        when(col("sid") === 5, array(lit(1.0), nul, lit(0.0))).otherwise(col("xs")))
      val nullXr = rDf.withColumn("xr",
        when(col("rid") === 3, array(lit(1.0), lit(2.0), nul, lit(0.0))).otherwise(col("xr")))
      Seq((nullXs, rDf, "null value in column xs"), (sDf, nullXr, "null value in column xr")).foreach {
        case (s, r, msg) =>
          assertFailsWith(msg, () => MGmm.train(store, s, r, init, iters = 1),
            () => SGmm.train(s, r, init, iters = 1), () => FGmm.train(s, r, init, iters = 1))
      }
      val unjoined = rDf.union(spark.range(999, 1000).select(col("id") as "rid",
        array(lit(1.0), nul, lit(0.0), lit(0.0)) as "xr"))
      assertTrainPerIteration(sDf, Seq(unjoined), init, store)
    } finally store.close()
  }

  test("log-likelihood is non-decreasing across EM iterations (F-GMM)") {
    val init = GmmModel.init(k = 3, d = 7, seed = 8)
    val fit = FGmm.train(sDf, rDf, init, iters = 4)
    fit.logliks.sliding(2).foreach { case Seq(a, b) =>
      assert(b >= a - math.abs(a) * 1e-9, s"loglik decreased: $a -> $b")
    }
  }

  test("weights stay a simplex and covariances stay symmetric across training") {
    val init = GmmModel.init(k = 3, d = 7, seed = 9)
    val fit = FGmm.train(sDf, rDf, init, iters = 3)
    assert(math.abs(fit.model.weights.sum - 1.0) < 1e-9)
    assert(fit.model.weights.forall(w => w > 0 && w < 1))
    fit.model.covs.foreach { c =>
      assert(c.maxAbsDiff(c.transpose) < 1e-12)
    }
  }

  test("multi-way: S-GMM and F-GMM produce identical models per iteration (q=2)") {
    val (s, rs) = NormalizedSynth.multiway(spark, nS = 2500, dS = 2,
      specs = Seq((20L, 3), (15L, 4)), seed = 31, k = 3)
    assertMultiPerIteration(s, rs, GmmModel.init(k = 3, d = 2 + 3 + 4, seed = 10), dS = 2)
  }

  test("multi-way: S-GMM and F-GMM produce identical models per iteration (q=3, unequal widths)") {
    val (s, rs) = NormalizedSynth.multiway(spark, nS = 2000, dS = 2,
      specs = Seq((12L, 2), (9L, 5), (7L, 3)), seed = 37, k = 3)
    assertMultiPerIteration(s, rs, GmmModel.init(k = 3, d = 2 + 2 + 5 + 3, seed = 13), dS = 2)
  }

  test("multi-way: orphan FKs are dropped like the inner join (q=2)") {
    import org.apache.spark.sql.functions._
    val (s0, rs) = NormalizedSynth.multiway(spark, nS = 2500, dS = 2,
      specs = Seq((20L, 3), (15L, 4)), seed = 31, k = 3)
    // every 97th row references an R2 tuple that does not exist
    val s = s0.withColumn("fk2", when(col("sid") % 97 === 0, lit(999L)).otherwise(col("fk2")))
    val orphans = s.where(col("fk2") === 999L).count()
    assert(orphans > 0)
    val init = GmmModel.init(k = 3, d = 9, seed = 10)
    import spark.implicits._
    val rRows = rs.map(_.select("rid", "xr").as[(Long, Array[Double])].collect())
    val acc = withBroadcast(spark.sparkContext, RRel.all(rRows))(
      FGmmMulti.pass(FGmmMulti.sRows(s, 2), _, init, dS = 2))
    assert(acc.orphans == orphans && acc.s.n == 2500 - orphans)
    assertMultiPerIteration(s, rs, init, dS = 2)
  }

  test("multi-way: bad R input fails on the driver before any Spark job") {
    val (s, rs) = NormalizedSynth.multiway(spark, nS = 500, dS = 2,
      specs = Seq((10L, 3), (8L, 4)), seed = 35, k = 2)
    import spark.implicits._
    val rRows = rs.map(_.select("rid", "xr").as[(Long, Array[Double])].collect())
    val init = GmmModel.init(k = 2, d = 9, seed = 14)
    val (dupRid, _) = rRows(1)(3)
    val dup = Seq(rRows(0), rRows(1) :+ ((dupRid, Array.fill(4)(0.5))))
    // a duplicate rid in a binary R (q = 1) fails the same way in F-GMM and F-NN
    val (sB, rB0) = NormalizedSynth.binary(spark, nS = 300, nR = 10, dS = 2, dR = 3, seed = 39,
      withTarget = true)
    val rB = rB0.select("rid", "xr").as[(Long, Array[Double])].collect()
    val (dupRidB, _) = rB(4)
    val dupB = rB :+ ((dupRidB, Array.fill(3)(0.5)))
    val group = "fgmm-multi-bad-r"
    spark.sparkContext.setJobGroup(group, "bad R input")
    val (e, eG, eN) =
      try (intercept[IllegalArgumentException](FGmmMulti.emStep(s, dup, init, dS = 2)),
           intercept[IllegalArgumentException](
             FGmm.emStep(sB, dupB, GmmModel.init(k = 2, d = 5, seed = 14), dS = 2, dR = 3)),
           intercept[IllegalArgumentException](
             FNn.epoch(sB, dupB, NnModel.init(nh = 3, d = 5, seed = 14), lr = 0.05, dS = 2)))
      finally spark.sparkContext.clearJobGroup()
    assert(e.getMessage.contains(s"relation R2 has duplicate rid $dupRid"), e.getMessage)
    Seq(eG, eN).foreach(eB =>
      assert(eB.getMessage.contains(s"relation R1 has duplicate rid $dupRidB"), eB.getMessage))
    assert(spark.sparkContext.statusTracker.getJobIdsForGroup(group).isEmpty)

    val empty = intercept[IllegalArgumentException](
      FGmmMulti.emStep(s, Seq(rRows(0), Array.empty[(Long, Array[Double])]), init, dS = 2))
    assert(empty.getMessage.contains("relation R2 is empty"), empty.getMessage)
    val (rid1, _) = rRows(0)(2)
    val ragged = rRows(0).updated(2, (rid1, Array(1.0, 2.0)))
    val e2 = intercept[IllegalArgumentException](
      FGmmMulti.emStep(s, Seq(ragged, rRows(1)), init, dS = 2))
    assert(e2.getMessage.contains(s"relation R1: rid $rid1 has 2 features, expected 3"), e2.getMessage)
  }

  test("multi-way trainers agree end to end (M vs F, q=2)") {
    val store = Store.temp(spark)
    try {
      val (s0, rs0) = NormalizedSynth.multiway(spark, nS = 1500, dS = 2,
        specs = Seq((12L, 2), (10L, 3)), seed = 33, k = 2)
      val s = store.write("s", s0)
      val rs = rs0.zipWithIndex.map { case (r, i) => store.write(s"r${i + 1}", r) }
      val init = GmmModel.init(k = 2, d = 7, seed = 11)
      val fitM = MGmm.trainMulti(store, s, rs, init, iters = 2)
      val fitS = SGmm.trainMulti(s, rs, init, iters = 2)
      val fitF = FGmmMulti.train(s, rs, init, iters = 2)
      assert(fitM.model.maxAbsDiff(fitF.model) < Tol)
      assert(fitS.model.maxAbsDiff(fitF.model) < Tol)
    } finally store.close()
  }

  test("F-GMM separates well-separated 1-d clusters (no loss in accuracy)") {
    // Explicitly bimodal S feature (±4) so cluster recovery is well-posed;
    // after a few EM iterations the two means should be far apart.
    import org.apache.spark.sql.functions._
    val s = spark.range(1, 4001).select(
      col("id") as "sid",
      (rand(1) * 20 + 1).cast("long") as "fk1",
      array(when(rand(2) < 0.5, -4.0).otherwise(4.0) + randn(3) * 0.5) as "xs")
    val r = spark.range(1, 21).select(col("id") as "rid", array(randn(4)) as "xr")
    val init = GmmModel.init(k = 2, d = 2, seed = 12)
    val fit = FGmm.train(s, r, init, iters = 8)
    val means0 = fit.model.means.map(_.head).sorted
    assert(means0.last - means0.head > 4.0,
      s"expected separated component means, got ${means0.mkString(",")}")
    // and the final model must still match the denormalized trainer exactly
    val fitS = SGmm.train(s, r, init, iters = 8)
    assert(fit.model.maxAbsDiff(fitS.model) < 1e-5)
  }
}
