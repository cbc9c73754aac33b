package repro.core

import java.util.UUID
import org.apache.spark.TestBus
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageCompleted, StageInfo}
import scala.collection.mutable
import repro.SparkSpec
import repro.core.gmm.{GmmModel, MGmm, SGmm}
import repro.core.nn.{MNn, NnModel, SNn}
import repro.data.{NormalizedSynth, Store}

/** What Spark runs for the denormalized baselines, job by job: M plans T's
  * scan once per run and every pass re-reads T's files, while S plans its
  * join again every iteration, so every pass shuffles S and R again. An S
  * that reused one planned join would find its shuffle files already
  * written and skip the join after the first pass. Counts only, no timings.
  */
class PassJobsSpec extends SparkSpec {
  import PassJobsSpec.Job

  private val Iters = 3

  /** The Spark jobs `run` starts, in order. */
  private def jobsOf(run: => Any): Seq[Job] = {
    val sc = spark.sparkContext
    val group = UUID.randomUUID.toString
    val jobs = mutable.ArrayBuffer.empty[(Set[Int], mutable.Map[Int, StageInfo])]
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (e.properties != null && e.properties.getProperty("spark.jobGroup.id") == group)
          jobs += ((e.stageIds.toSet, mutable.Map.empty))
      // a stage id is shared by every job that needs its output; it ran in
      // the latest job started before it completed
      override def onStageCompleted(e: SparkListenerStageCompleted): Unit =
        jobs.findLast(_._1.contains(e.stageInfo.stageId)).foreach(_._2(e.stageInfo.stageId) = e.stageInfo)
    }
    sc.addSparkListener(listener)
    sc.setJobGroup(group, "pass jobs")
    try run
    finally {
      sc.clearJobGroup()
      TestBus.drain(sc)
      sc.removeSparkListener(listener)
    }
    jobs.map { case (stages, ran) => Job(stages, ran.toMap) }.toSeq
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
}

object PassJobsSpec {

  /** One Spark job: its stages, and those that ran in it. A stage that did
    * not run was skipped: its output already existed.
    */
  final case class Job(stages: Set[Int], ran: Map[Int, StageInfo]) {
    private def metrics = ran.values.map(_.taskMetrics)
    def skipped: Int = stages.size - ran.size
    def inputBytes: Long = metrics.map(_.inputMetrics.bytesRead).sum
    def outputBytes: Long = metrics.map(_.outputMetrics.bytesWritten).sum
    def shuffleStages: Int = metrics.count(_.shuffleWriteMetrics.bytesWritten > 0)
    /** The RDDs the job's stages ran, by id. */
    def rdds: Set[Int] = ran.values.flatMap(_.rddInfos.map(_.id)).toSet
    override def toString: String =
      s"Job(${stages.size} stages, $skipped skipped, $shuffleStages writing shuffle, " +
        s"$inputBytes B in, $outputBytes B out)"
  }
}
