package repro.core.nn

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.core.{RRel, withBroadcast}
import repro.data.{NormalizedSynth, Store}
import repro.linalg.TestKernels._

/** The NN counterpart of the paper's exactness claim: M-NN, S-NN and F-NN
  * perform identical parameter updates every epoch (the layer-1
  * decomposition and the grouped backward reduction are exact), for both
  * binary and multi-way joins, dense and one-hot-sparse features.
  */
class NnEquivalenceSpec extends SparkSpec {

  private val Tol = 1e-7

  /** S-NN over the inner join and the F-NN engine update identically in
    * each of two epochs from `init`, and so does M-NN over T materialized in
    * `store`, if given. S's column `fk<i>` references `rs(i - 1)`.
    */
  private def assertPerEpoch(s: DataFrame, rs: Seq[DataFrame], init: NnModel, dS: Int,
                             store: Option[Store] = None): Unit = {
    import spark.implicits._
    val rRows = rs.map(_.select("rid", "xr").as[(Long, Array[Double])].collect())
    val t = SNn.joinedMulti(s, rs)
    val ts = t +: store.map(_.write("t_per_epoch", t)).toSeq // S, then M
    var ms = ts.map(_ => init)
    var mF = init
    (1 to 2).foreach { ep =>
      val (nextF, lF) = FNnMulti.epoch(s, rRows, mF, lr = 0.05, dS)
      ms = ts.zip(ms).map { case (tt, m) =>
        val (next, l) = DenormNn.epoch(tt, m, lr = 0.05)
        assert(math.abs(l - lF) < 1e-10, s"epoch $ep loss: $l vs $lF")
        assert(next.maxAbsDiff(nextF) < Tol, s"epoch $ep params diverged")
        next
      }
      mF = nextF
    }
  }

  /** M-NN over T materialized in `store`, S-NN and F-NN, each trained for
    * 1 and 2 epochs from `init` through `train`, agree after every epoch.
    * This path reads R as the trainers do, so it covers R rows that cannot
    * be collected as (rid, xr) tuples: null rids and null feature elements.
    */
  private def assertTrainPerEpoch(s: DataFrame, rs: Seq[DataFrame], init: NnModel, store: Store): Unit =
    (1 to 2).foreach { n =>
      val fitF = FNnMulti.train(s, rs, init, n, lr = 0.05)
      Seq(MNn.trainMulti(store, s, rs, init, n, lr = 0.05), SNn.trainMulti(s, rs, init, n, lr = 0.05)).foreach {
        fit =>
          fit.losses.zip(fitF.losses).foreach { case (a, b) => assert(math.abs(a - b) < 1e-10, s"epoch $n loss: $a vs $b") }
          assert(fit.model.maxAbsDiff(fitF.model) < Tol, s"epoch $n params diverged")
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
    NormalizedSynth.binary(spark, nS = 2500, nR = 25, dS = 3, dR = 4, seed = 91,
      withTarget = true)

  test("S-NN and F-NN update identically per epoch (binary, sigmoid)") {
    import spark.implicits._
    val rRows = rDf.select("rid", "xr").as[(Long, Array[Double])].collect()
    val t = DenormNn.joined(sDf, rDf)
    var mS = NnModel.init(nh = 6, d = 7, seed = 41)
    var mF = mS
    (1 to 3).foreach { ep =>
      val (nextS, lS) = DenormNn.epoch(t, mS, lr = 0.05)
      val (nextF, lF) = FNn.epoch(sDf, rRows, mF, lr = 0.05, dS = 3)
      assert(math.abs(lS - lF) < 1e-10, s"epoch $ep loss: $lS vs $lF")
      assert(nextS.maxAbsDiff(nextF) < Tol, s"epoch $ep params diverged")
      mS = nextS; mF = nextF
    }
  }

  test("every activation trains identically (factorization is activation-agnostic at layer 1)") {
    import spark.implicits._
    val rRows = rDf.select("rid", "xr").as[(Long, Array[Double])].collect()
    val t = DenormNn.joined(sDf, rDf)
    Seq(Activation.Sigmoid, Activation.Relu, Activation.Tanh, Activation.Identity).foreach { act =>
      val init = NnModel.init(nh = 5, d = 7, seed = 43, activation = act)
      val (nextS, lS) = DenormNn.epoch(t, init, lr = 0.05)
      val (nextF, lF) = FNn.epoch(sDf, rRows, init, lr = 0.05, dS = 3)
      assert(math.abs(lS - lF) < 1e-10, act.name)
      assert(nextS.maxAbsDiff(nextF) < Tol, act.name)
    }
  }

  test("M-NN (materialized) equals S-NN and F-NN end to end") {
    val store = Store.temp(spark)
    try {
      val s = store.write("s", sDf)
      val r = store.write("r", rDf)
      val init = NnModel.init(nh = 6, d = 7, seed = 47)
      val fitM = MNn.train(store, s, r, init, epochs = 2, lr = 0.05)
      val fitS = SNn.train(s, r, init, epochs = 2, lr = 0.05)
      val fitF = FNn.train(s, r, init, epochs = 2, lr = 0.05)
      assert(fitM.model.maxAbsDiff(fitS.model) < Tol)
      assert(fitM.model.maxAbsDiff(fitF.model) < Tol)
      assert(fitM.losses.zip(fitF.losses).forall { case (a, b) => math.abs(a - b) < 1e-9 })
    } finally store.close()
  }

  test("ragged or null xs rows fail in M, S and F, naming the widths") {
    import org.apache.spark.sql.functions._
    val store = Store.temp(spark)
    try {
      val init = NnModel.init(nh = 6, d = 7, seed = 41)
      Seq((slice(col("xs"), 1, 2), "joined row has 2 + 4 features, expected 7",
           "S row has 2 features, expected 3"),
          (lit(null).cast("array<double>"), "joined row has null + 4 features, expected 7",
           "S row has null features, expected 3")).foreach { case (xs, denormMsg, fMsg) =>
        val s = sDf.withColumn("xs", when(col("sid") === 5, xs).otherwise(col("xs")))
        Seq(denormMsg -> (() => MNn.train(store, s, rDf, init, epochs = 1, lr = 0.05)),
            denormMsg -> (() => SNn.train(s, rDf, init, epochs = 1, lr = 0.05)),
            fMsg -> (() => FNn.train(s, rDf, init, epochs = 1, lr = 0.05))).foreach { case (msg, run) =>
          val e = intercept[Exception](run())
          assert(Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null).exists(c =>
            c.isInstanceOf[IllegalArgumentException] && c.getMessage.contains(msg)), s"$msg: $e")
        }
      }
    } finally store.close()
  }

  test("non-finite features fail with one message in M, S and F; a NaN tuple no S row joins is dropped") {
    import org.apache.spark.sql.functions._
    val store = Store.temp(spark)
    try {
      val init = NnModel.init(nh = 6, d = 7, seed = 41)
      def vec(v: Double*) = array(v.map(lit): _*)
      val nanXs = sDf.withColumn("xs",
        when(col("sid") === 5, vec(Double.NaN, 0.0, 0.0)).otherwise(col("xs")))
      val infXr = rDf.withColumn("xr",
        when(col("rid") === 3, vec(Double.PositiveInfinity, 0.0, 0.0, 0.0)).otherwise(col("xr")))
      val msgs = Seq(nanXs -> rDf, sDf -> infXr).flatMap { case (s, r) =>
        Seq(() => MNn.train(store, s, r, init, epochs = 1, lr = 0.05),
            () => SNn.train(s, r, init, epochs = 1, lr = 0.05),
            () => FNn.train(s, r, init, epochs = 1, lr = 0.05))
          .map(run => intercept[IllegalArgumentException](run()).getMessage)
      }
      assert(msgs.distinct.size == 1 && msgs.head.contains("non-finite features"), msgs)
      // a tuple no S row references is never read (inner join): training succeeds
      val nanTuple = rDf.union(
        spark.range(999, 1000).select(col("id") as "rid", vec(Seq.fill(4)(Double.NaN): _*) as "xr"))
      assertPerEpoch(sDf, Seq(nanTuple), init, dS = 3, Some(store))
    } finally store.close()
  }

  test("an empty join (every FK an orphan) fails on the driver in M, S and F, binary and q=2") {
    import org.apache.spark.sql.functions._
    val store = Store.temp(spark)
    try {
      val s = sDf.withColumn("fk1", lit(999L))
      val init = NnModel.init(nh = 6, d = 7, seed = 41)
      val (sM0, rsM) = NormalizedSynth.multiway(spark, nS = 500, dS = 2,
        specs = Seq((10L, 3), (8L, 4)), seed = 35, withTarget = true)
      val sM = sM0.withColumn("fk1", lit(999L))
      val initM = NnModel.init(nh = 5, d = 9, seed = 61)
      val msgs = Seq(() => MNn.train(store, s, rDf, init, epochs = 1, lr = 0.05),
                     () => SNn.train(s, rDf, init, epochs = 1, lr = 0.05),
                     () => FNn.train(s, rDf, init, epochs = 1, lr = 0.05),
                     () => MNn.trainMulti(store, sM, rsM, initM, epochs = 1, lr = 0.05),
                     () => SNn.trainMulti(sM, rsM, initM, epochs = 1, lr = 0.05),
                     () => FNnMulti.train(sM, rsM, initM, epochs = 1, lr = 0.05))
        .map(run => intercept[IllegalArgumentException](run()).getMessage)
      assert(msgs.distinct.size == 1 && msgs.head.contains("the join is empty"), msgs)
    } finally store.close()
  }

  test("an S with no rows or no partitions fails like an empty join in M, S and F") {
    import org.apache.spark.sql.functions._
    val store = Store.temp(spark)
    try {
      val init = NnModel.init(nh = 6, d = 7, seed = 41)
      Seq(sDf.limit(0), sDf.where(lit(false))).foreach { s =>
        val msgs = Seq(() => MNn.train(store, s, rDf, init, epochs = 1, lr = 0.05),
                       () => SNn.train(s, rDf, init, epochs = 1, lr = 0.05),
                       () => FNn.train(s, rDf, init, epochs = 1, lr = 0.05))
          .map(run => intercept[IllegalArgumentException](run()).getMessage)
        assert(msgs.distinct.size == 1 && msgs.head.contains("the join is empty"), msgs)
      }
    } finally store.close()
  }

  test("repeat runs of M, S and F give bit-identical losses and models") {
    val store = Store.temp(spark)
    try {
      val init = NnModel.init(nh = 6, d = 7, seed = 47)
      def bits(fit: NnFit): Seq[Double] =
        fit.losses ++ fit.model.w1.a ++ fit.model.b1 ++ fit.model.w2 :+ fit.model.b2
      Seq(() => MNn.train(store, sDf, rDf, init, epochs = 2, lr = 0.05),
          () => SNn.train(sDf, rDf, init, epochs = 2, lr = 0.05),
          () => FNn.train(sDf, rDf, init, epochs = 2, lr = 0.05)).foreach { run =>
        assert(bits(run()) == bits(run()))
      }
    } finally store.close()
  }

  test("every S row on one R tuple: M, S and F agree per epoch (binary and q=2)") {
    import org.apache.spark.sql.functions._
    val store = Store.temp(spark)
    try {
      assertPerEpoch(sDf.withColumn("fk1", lit(7L)), Seq(rDf),
        NnModel.init(nh = 6, d = 7, seed = 41), dS = 3, Some(store))
      val (s, rs) = NormalizedSynth.multiway(spark, nS = 1500, dS = 2,
        specs = Seq((18L, 3), (12L, 4)), seed = 101, withTarget = true)
      assertPerEpoch(s.withColumn("fk1", lit(3L)).withColumn("fk2", lit(5L)), rs,
        NnModel.init(nh = 5, d = 9, seed = 61), dS = 2, Some(store))
    } finally store.close()
  }

  test("nR > nS, most R tuples never joined: M, S and F agree per epoch (binary and q=2)") {
    val store = Store.temp(spark)
    try {
      val (sB, rB) = NormalizedSynth.binary(spark, nS = 400, nR = 3000, dS = 3, dR = 4, seed = 83,
        withTarget = true)
      assertPerEpoch(sB, Seq(rB), NnModel.init(nh = 6, d = 7, seed = 41), dS = 3,
        Some(store))
      val (s, rs) = NormalizedSynth.multiway(spark, nS = 400, dS = 2,
        specs = Seq((2000L, 3), (1500L, 4)), seed = 107, withTarget = true)
      assertPerEpoch(s, rs, NnModel.init(nh = 5, d = 9, seed = 61), dS = 2, Some(store))
    } finally store.close()
  }

  test("a null FK is dropped like the inner join: M, S and F agree per epoch (binary and q=2)") {
    import org.apache.spark.sql.functions._
    val store = Store.temp(spark)
    try {
      // a tuple with rid 0, which no FK references: a null FK must not read as 0
      def withRid0(r: DataFrame, dR: Int) =
        r.union(spark.range(0, 1).select(col("id") as "rid", array(Seq.fill(dR)(lit(0.5)): _*) as "xr"))
      val s = sDf.withColumn("fk1", when(col("sid") === 5, lit(null).cast("long")).otherwise(col("fk1")))
      val r = withRid0(rDf, 4)
      val init = NnModel.init(nh = 6, d = 7, seed = 41)
      val acc = withBroadcast(spark.sparkContext, RRel.collect(Seq(r))(())._1)(
        FNnMulti.pass(FNnMulti.sRows(s, 1), _, init, dS = 3))
      assert(acc.orphans == 1 && acc.sums.n == 2499)
      assertTrainPerEpoch(s, Seq(r), init, store)
      val (sM0, rsM) = NormalizedSynth.multiway(spark, nS = 1500, dS = 2,
        specs = Seq((18L, 3), (12L, 4)), seed = 101, withTarget = true)
      val sM = sM0.withColumn("fk2", when(col("sid") % 97 === 0, lit(null).cast("long")).otherwise(col("fk2")))
      assertTrainPerEpoch(sM, Seq(rsM(0), withRid0(rsM(1), 4)), NnModel.init(nh = 5, d = 9, seed = 61), store)
    } finally store.close()
  }

  test("an R tuple with a null rid joins no S row: M, S and F agree per epoch") {
    import org.apache.spark.sql.functions._
    val store = Store.temp(spark)
    try {
      // two of them, so that rids read as 0 would collide
      val r = rDf.withColumn("rid", when(col("rid") < 3, lit(null).cast("long")).otherwise(col("rid")))
      assertTrainPerEpoch(sDf, Seq(r), NnModel.init(nh = 6, d = 7, seed = 41), store)
    } finally store.close()
  }

  test("a null target or feature element fails with one message in M, S and F; a tuple no S row joins is dropped") {
    import org.apache.spark.sql.functions._
    val store = Store.temp(spark)
    try {
      val init = NnModel.init(nh = 6, d = 7, seed = 41)
      val nul = lit(null).cast("double")
      val nullY = sDf.withColumn("y", when(col("sid") === 5, nul).otherwise(col("y")))
      val nullXs = sDf.withColumn("xs",
        when(col("sid") === 5, array(lit(1.0), nul, lit(0.0))).otherwise(col("xs")))
      val nullXr = rDf.withColumn("xr",
        when(col("rid") === 3, array(lit(1.0), lit(2.0), nul, lit(0.0))).otherwise(col("xr")))
      Seq((nullY, rDf, "null value in column y"), (nullXs, rDf, "null value in column xs"),
          (sDf, nullXr, "null value in column xr")).foreach { case (s, r, msg) =>
        assertFailsWith(msg, () => MNn.train(store, s, r, init, epochs = 1, lr = 0.05),
          () => SNn.train(s, r, init, epochs = 1, lr = 0.05), () => FNn.train(s, r, init, epochs = 1, lr = 0.05))
      }
      val unjoined = rDf.union(spark.range(999, 1000).select(col("id") as "rid",
        array(lit(1.0), nul, lit(0.0), lit(0.0)) as "xr"))
      assertTrainPerEpoch(sDf, Seq(unjoined), init, store)
    } finally store.close()
  }

  test("loss decreases over training (F-NN learns)") {
    val init = NnModel.init(nh = 8, d = 7, seed = 53)
    val fit = FNn.train(sDf, rDf, init, epochs = 6, lr = 0.3)
    assert(fit.losses.last < fit.losses.head,
      s"loss did not improve: ${fit.losses.mkString(", ")}")
  }

  test("one-hot sparse features train identically (the paper's Sparse datasets)") {
    import spark.implicits._
    val (s, r) = NormalizedSynth.binary(spark, nS = 1500, nR = 20, dS = 12, dR = 14,
      seed = 97, withTarget = true, sparse = true)
    val rRows = r.select("rid", "xr").as[(Long, Array[Double])].collect()
    val t = DenormNn.joined(s, r)
    val init = NnModel.init(nh = 5, d = 26, seed = 59)
    val (nextS, lS) = DenormNn.epoch(t, init, lr = 0.05)
    val (nextF, lF) = FNn.epoch(s, rRows, init, lr = 0.05, dS = 12)
    assert(math.abs(lS - lF) < 1e-10)
    assert(nextS.maxAbsDiff(nextF) < Tol)
  }

  test("multi-way: S-NN and F-NN update identically per epoch (q=2)") {
    val (s, rs) = NormalizedSynth.multiway(spark, nS = 2000, dS = 2,
      specs = Seq((18L, 3), (12L, 4)), seed = 101, withTarget = true)
    assertPerEpoch(s, rs, NnModel.init(nh = 5, d = 9, seed = 61), dS = 2)
  }

  test("orphan FKs are dropped like the inner join (binary and q=2)") {
    import org.apache.spark.sql.functions._
    val (sM, rsM) = NormalizedSynth.multiway(spark, nS = 2000, dS = 2,
      specs = Seq((18L, 3), (12L, 4)), seed = 101, withTarget = true)
    // every 97th row references an R (binary) or R2 (q = 2) tuple that does not exist
    val cases = Seq(
      (sDf, Seq(rDf), "fk1", NnModel.init(nh = 6, d = 7, seed = 41), 3),
      (sM, rsM, "fk2", NnModel.init(nh = 5, d = 9, seed = 61), 2))
    cases.foreach { case (s0, rs, orphanCol, init, dS) =>
      val s = s0.withColumn(orphanCol,
        when(col("sid") % 97 === 0, lit(999L)).otherwise(col(orphanCol)))
      val orphans = s.where(col(orphanCol) === 999L).count()
      assert(orphans > 0)
      val acc = withBroadcast(spark.sparkContext, RRel.collect(rs)(())._1)(
        FNnMulti.pass(FNnMulti.sRows(s, rs.length), _, init, dS))
      assert(acc.orphans == orphans && acc.sums.n == s.count() - orphans)
      assertPerEpoch(s, rs, init, dS)
    }
  }

  test("multi-way trainers agree end to end (M vs S vs F, q=2)") {
    val store = Store.temp(spark)
    try {
      val (s0, rs0) = NormalizedSynth.multiway(spark, nS = 1200, dS = 2,
        specs = Seq((10L, 2), (8L, 3)), seed = 103, withTarget = true)
      val s = store.write("s", s0)
      val rs = rs0.zipWithIndex.map { case (r, i) => store.write(s"r${i + 1}", r) }
      val init = NnModel.init(nh = 4, d = 7, seed = 67)
      val fitM = MNn.trainMulti(store, s, rs, init, epochs = 2, lr = 0.05)
      val fitS = SNn.trainMulti(s, rs, init, epochs = 2, lr = 0.05)
      val fitF = FNnMulti.train(s, rs, init, epochs = 2, lr = 0.05)
      assert(fitM.model.maxAbsDiff(fitF.model) < Tol)
      assert(fitS.model.maxAbsDiff(fitF.model) < Tol)
    } finally store.close()
  }
}
