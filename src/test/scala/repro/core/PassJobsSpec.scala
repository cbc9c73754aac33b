package repro.core

import java.util.UUID
import org.apache.spark.TestBus
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageCompleted, StageInfo}
import scala.collection.mutable
import repro.SparkSpec
import repro.core.gmm.{FGmm, FGmmMulti, GmmModel, MGmm, SGmm}
import repro.core.nn.{FNn, FNnMulti, MNn, NnModel, SNn}
import repro.data.{NormalizedSynth, Store}

/** What Spark runs for each trainer, job by job: M plans T's scan once per
  * run and every pass re-reads T's files, while S plans its join again
  * every iteration, so every pass shuffles S and R again. An S that reused
  * one planned join would find its shuffle files already written and skip
  * the join after the first pass. F reads each Ri with one job, in the
  * caller's job group, then scans S once per pass. Counts only, no timings.
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

  /** Run `body` with adaptive query execution on or off, then restore it.
    * When it is on, Spark runs a join's shuffle stages as jobs of their own
    * while the pass is planned, and the pass job skips them.
    */
  private def withAdaptive[A](on: Boolean)(body: => A): A = {
    val key = "spark.sql.adaptive.enabled"
    val before = spark.conf.get(key)
    spark.conf.set(key, on)
    try body finally spark.conf.set(key, before)
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

  /** S shuffles S and R again in every iteration. With adaptive execution
    * off every pass job does so itself, skipping no stage.
    */
  private def assertSPasses(jobs: Seq[Job], adaptive: Boolean): Unit = {
    assert(jobs.map(_.shuffleStages).sum == 2 * Iters, jobs)
    if (!adaptive) assert(jobs.size == Iters && jobs.forall(j => j.skipped == 0 && j.shuffleStages == 2), jobs)
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
      Seq(false, true).foreach(on => assertSPasses(withAdaptive(on)(jobsOf(SGmm.train(s, r, init, Iters))), on))
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
      Seq(false, true).foreach(on =>
        assertSPasses(withAdaptive(on)(jobsOf(SNn.train(s, r, init, Iters, lr = 0.05))), on))
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
    override def toString: String =
      s"Job(${stages.size} stages, $skipped skipped, $shuffleStages writing shuffle, " +
        s"$inputBytes B in, $outputBytes B out${if (inGroup) "" else ", outside the group"})"
  }
}
