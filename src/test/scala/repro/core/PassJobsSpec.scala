package repro.core

import java.util.UUID
import org.apache.spark.TestBus
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageCompleted, StageInfo}
import org.apache.spark.sql.execution.exchange.ReusedExchangeExec
import scala.collection.mutable
import repro.SparkSpec
import repro.core.gmm.{DenormGmm, FGmm, FGmmMulti, GmmFit, GmmModel, MGmm, SGmm}
import repro.core.nn.{FNn, FNnMulti, MNn, NnModel, SNn}
import repro.data.{NormalizedSynth, Store}
import repro.linalg.TestKernels._

/** What Spark runs for each trainer, job by job: M plans T's scan once per
  * run and every pass re-reads T's files, while S plans its join once per
  * run and every pass reads S and R and shuffles them again, through new
  * exchanges. An S that reused one planned join as it is would find its
  * shuffle files already written and skip the join after the first pass.
  * F reads each Ri with one job, in the caller's job group, then scans S
  * once per pass. Counts only, no timings.
  */
class PassJobsSpec extends SparkSpec {
  import PassJobsSpec.Job

  private val Iters = 3

  /** The Spark jobs `run` starts, in order, each marked with whether it
    * ran in the job group `run` was called in.
    */
  private def jobsOf(run: => Any): Seq[Job] = {
    val sc = spark.sparkContext
    val group = UUID.randomUUID.toString
    val jobs = mutable.ArrayBuffer.empty[(Set[Int], mutable.Map[Int, StageInfo], Boolean)]
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        jobs += ((e.stageIds.toSet, mutable.Map.empty,
          e.properties != null && e.properties.getProperty("spark.jobGroup.id") == group))
      // a stage id is shared by every job that needs its output; it ran in
      // the latest job started before it completed
      override def onStageCompleted(e: SparkListenerStageCompleted): Unit =
        jobs.findLast(_._1.contains(e.stageInfo.stageId)).foreach(_._2(e.stageInfo.stageId) = e.stageInfo)
    }
    TestBus.drain(sc) // no earlier job's events reach the listener
    sc.addSparkListener(listener)
    sc.setJobGroup(group, "pass jobs")
    try run
    finally {
      sc.clearJobGroup()
      TestBus.drain(sc)
      sc.removeSparkListener(listener)
    }
    jobs.map { case (stages, ran, inGroup) => Job(stages, ran.toMap, inGroup) }.toSeq
  }

  /** After the jobs that materialize T (each writes shuffle or files; none
    * only reads Parquet footers), M runs one job per pass, each a single
    * stage that reads T's files and shuffles nothing, and all of them run
    * the same RDD: T's scan was planned once.
    */
  private def assertMPasses(jobs: Seq[Job]): Unit = {
    val (write, passes) = jobs.splitAt(jobs.lastIndexWhere(_.outputBytes > 0) + 1)
    assert(write.nonEmpty && write.forall(j => j.outputBytes > 0 || j.shuffleStages > 0), write)
    assert(passes.size == Iters, passes)
    assert(passes.forall(p => p.stages.size == 1 && p.skipped == 0 && p.inputBytes > 0 && p.shuffleStages == 0),
      passes)
    assert(passes.map(_.rdds).distinct.size == 1, passes.map(_.rdds))
  }

  /** S shuffles S and its `q` relations again in every iteration, two
    * shuffles per join. With adaptive execution off every pass job does so
    * itself, skipping no stage.
    */
  private def assertSPasses(jobs: Seq[Job], adaptive: Boolean, q: Int = 1): Unit = {
    assert(jobs.map(_.shuffleStages).sum == 2 * q * Iters, jobs)
    if (!adaptive) assert(jobs.size == Iters && jobs.forall(j => j.skipped == 0 && j.shuffleStages == 2 * q), jobs)
  }

  /** S planned its join once: with adaptive execution off, every pass
    * reads S's and R's files through the scans planned with the join, the
    * same RDDs in every pass, and shuffles them into shuffle RDDs of its
    * own.
    */
  private def assertSPlannedOnce(jobs: Seq[Job]): Unit = {
    assert(jobs.forall(_.inputBytes > 0), jobs)
    val scans = jobs.map(_.rddsNamed("FileScanRDD"))
    assert(scans.head.nonEmpty && scans.forall(_ == scans.head), scans)
    val shuffles = jobs.map(_.rddsNamed("ShuffledRowRDD"))
    assert(shuffles.forall(_.nonEmpty) && shuffles.flatten.distinct.size == shuffles.map(_.size).sum, shuffles)
  }

  /** The jobs of S's `run` with adaptive execution off and on, checked
    * against [[assertSPasses]], and off against [[assertSPlannedOnce]].
    */
  private def assertS(q: Int)(run: => Any): Unit =
    Seq(false, true).foreach { on =>
      val jobs = withAdaptive(on)(jobsOf(run))
      assertSPasses(jobs, on, q)
      if (!on) assertSPlannedOnce(jobs)
    }

  /** F runs every job in the caller's job group. It reads each of its `q`
    * relations with one job that reads R's files and shuffles nothing, then
    * runs one job per pass, each a single stage that reads S's files and
    * writes no shuffle, and all of them run the same RDD: S's scan was
    * planned once.
    */
  private def assertFJobs(jobs: Seq[Job], q: Int): Unit = {
    assert(jobs.forall(_.inGroup), jobs)
    assert(jobs.size == q + Iters, jobs)
    val (reads, passes) = jobs.splitAt(q)
    assert(reads.forall(r => r.stages.size == 1 && r.skipped == 0 && r.inputBytes > 0 && r.shuffleStages == 0),
      reads)
    assert(passes.forall(p => p.stages.size == 1 && p.skipped == 0 && p.inputBytes > 0 && p.shuffleStages == 0),
      passes)
    assert(passes.map(_.rdds).distinct.size == 1, passes.map(_.rdds))
    assert(reads.forall(r => (r.rdds & passes.head.rdds).isEmpty), reads.map(_.rdds))
  }

  test("GMM: M re-reads T's files and S joins again in every iteration") {
    val store = Store.temp(spark)
    try {
      val (s0, r0) = NormalizedSynth.binary(spark, nS = 2000, nR = 20, dS = 2, dR = 3, seed = 61, k = 2)
      val s = store.write("s", s0)
      val r = store.write("r", r0)
      val init = GmmModel.init(k = 2, d = 5, seed = 62)
      assertMPasses(jobsOf(MGmm.train(store, s, r, init, Iters)))
      assertS(q = 1)(SGmm.train(s, r, init, Iters))
    } finally store.close()
  }

  test("NN: M re-reads T's files and S joins again in every epoch") {
    val store = Store.temp(spark)
    try {
      val (s0, r0) = NormalizedSynth.binary(spark, nS = 2000, nR = 20, dS = 2, dR = 3, seed = 63, k = 2,
        withTarget = true)
      val s = store.write("s", s0)
      val r = store.write("r", r0)
      val init = NnModel.init(nh = 4, d = 5, seed = 64)
      assertMPasses(jobsOf(MNn.train(store, s, r, init, Iters, lr = 0.05)))
      assertS(q = 1)(SNn.train(s, r, init, Iters, lr = 0.05))
    } finally store.close()
  }

  test("GMM: S joins again in every iteration at q=2, through a join planned once") {
    val store = Store.temp(spark)
    try {
      val (s0, rs0) = NormalizedSynth.multiway(spark, nS = 1000, dS = 2, specs = Seq((12L, 2), (10L, 3)), seed = 65,
        k = 2)
      val s = store.write("s", s0)
      val rs = rs0.zipWithIndex.map { case (ri, i) => store.write(s"r${i + 1}", ri) }
      assertS(q = 2)(SGmm.trainMulti(s, rs, GmmModel.init(k = 2, d = 7, seed = 66), Iters))
    } finally store.close()
  }

  test("NN: S joins again in every epoch at q=2, through a join planned once") {
    val store = Store.temp(spark)
    try {
      val (s0, rs0) = NormalizedSynth.multiway(spark, nS = 1000, dS = 2, specs = Seq((12L, 2), (10L, 3)), seed = 67,
        withTarget = true)
      val s = store.write("s", s0)
      val rs = rs0.zipWithIndex.map { case (ri, i) => store.write(s"r${i + 1}", ri) }
      assertS(q = 2)(SNn.trainMulti(s, rs, NnModel.init(nh = 4, d = 7, seed = 68), Iters, lr = 0.05))
    } finally store.close()
  }

  test("S with one R as both relations shuffles it again in every iteration, as an S that plans again does") {
    val store = Store.temp(spark)
    try {
      val (s0, rs0) = NormalizedSynth.multiway(spark, nS = 1000, dS = 2, specs = Seq((12L, 2), (12L, 2)), seed = 69,
        k = 2)
      val s = store.write("s", s0)
      val r = store.write("r", rs0.head)
      val rs = Seq(r, r)
      val init = GmmModel.init(k = 2, d = 6, seed = 70)
      withAdaptive(false) {
        // the second join reads the first one's shuffle of R
        assert(SGmm.joinedMulti(s, rs).queryExecution.executedPlan.exists(_.isInstanceOf[ReusedExchangeExec]))
        var fitS: GmmFit = null
        val planned = jobsOf { fitS = SGmm.trainMulti(s, rs, init, Iters) }
        var fitR: (GmmModel, Seq[Double]) = null
        val replanned = jobsOf { fitR = iterate(init, Iters)(DenormGmm.emStep(SGmm.joinedMulti(s, rs), _)) }
        val (model, lls) = fitR
        Seq(planned, replanned).foreach(jobs => assert(jobs.size == Iters && jobs.forall(_.skipped == 0), jobs))
        assert(planned.map(_.shuffleStages).distinct == Seq(replanned.head.shuffleStages), (planned, replanned))
        assert(replanned.map(_.shuffleStages).distinct.size == 1, replanned)
        assert(fitS.logliks == lls && fitS.model.params == model.params)
      }
    } finally store.close()
  }

  test("GMM: F reads each R in the caller's job group, then scans S once per iteration (binary and q=2)") {
    val store = Store.temp(spark)
    try {
      val (s0, r0) = NormalizedSynth.binary(spark, nS = 2000, nR = 20, dS = 2, dR = 3, seed = 61, k = 2)
      val s = store.write("s", s0)
      val r = store.write("r", r0)
      assertFJobs(jobsOf(FGmm.train(s, r, GmmModel.init(k = 2, d = 5, seed = 62), Iters)), q = 1)
      val (sM0, rsM0) = NormalizedSynth.multiway(spark, nS = 1000, dS = 2,
        specs = Seq((12L, 2), (10L, 3)), seed = 65, k = 2)
      val sM = store.write("s2", sM0)
      val rsM = rsM0.zipWithIndex.map { case (ri, i) => store.write(s"r2_${i + 1}", ri) }
      assertFJobs(jobsOf(FGmmMulti.train(sM, rsM, GmmModel.init(k = 2, d = 7, seed = 66), Iters)), q = 2)
    } finally store.close()
  }

  test("NN: F reads each R in the caller's job group, then scans S once per epoch (binary and q=2)") {
    val store = Store.temp(spark)
    try {
      val (s0, r0) = NormalizedSynth.binary(spark, nS = 2000, nR = 20, dS = 2, dR = 3, seed = 63, k = 2,
        withTarget = true)
      val s = store.write("s", s0)
      val r = store.write("r", r0)
      assertFJobs(jobsOf(FNn.train(s, r, NnModel.init(nh = 4, d = 5, seed = 64), Iters, lr = 0.05)), q = 1)
      val (sM0, rsM0) = NormalizedSynth.multiway(spark, nS = 1000, dS = 2,
        specs = Seq((12L, 2), (10L, 3)), seed = 67, withTarget = true)
      val sM = store.write("s2", sM0)
      val rsM = rsM0.zipWithIndex.map { case (ri, i) => store.write(s"r2_${i + 1}", ri) }
      assertFJobs(jobsOf(FNnMulti.train(sM, rsM, NnModel.init(nh = 4, d = 7, seed = 68), Iters, lr = 0.05)),
        q = 2)
    } finally store.close()
  }
}

object PassJobsSpec {

  /** One Spark job: its stages, those that ran in it, and whether it ran
    * in the job group of the code that started it. A stage that did not
    * run was skipped: its output already existed.
    */
  final case class Job(stages: Set[Int], ran: Map[Int, StageInfo], inGroup: Boolean) {
    private def metrics = ran.values.map(_.taskMetrics)
    def skipped: Int = stages.size - ran.size
    def inputBytes: Long = metrics.map(_.inputMetrics.bytesRead).sum
    def outputBytes: Long = metrics.map(_.outputMetrics.bytesWritten).sum
    def shuffleStages: Int = metrics.count(_.shuffleWriteMetrics.bytesWritten > 0)
    /** The RDDs the job's stages ran, by id. */
    def rdds: Set[Int] = ran.values.flatMap(_.rddInfos.map(_.id)).toSet
    /** The RDDs of class `name` the job's stages ran, by id. */
    def rddsNamed(name: String): Set[Int] = ran.values.flatMap(_.rddInfos.filter(_.name == name).map(_.id)).toSet
    override def toString: String =
      s"Job(${stages.size} stages, $skipped skipped, $shuffleStages writing shuffle, " +
        s"$inputBytes B in, $outputBytes B out${if (inGroup) "" else ", outside the group"})"
  }
}
