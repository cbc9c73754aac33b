package perfbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.collection.mutable

/** One timed interval. `parent` is 0 for a root span. Times are wall-clock
  * milliseconds (fractional), so driver spans and Spark's job timestamps
  * share one axis. `group` is the Spark job group of the span: every Spark
  * job started inside it, and in no child span, carries that group.
  */
final case class Span(id: Int, parent: Int, name: String, startMs: Double, endMs: Double,
                      attrs: Map[String, Any] = Map.empty) {
  def seconds: Double = (endMs - startMs) / 1e3
  def group: String = Tracer.group(id)
  def record: Map[String, Any] = collection.immutable.ListMap(
    "id" -> id, "parent" -> parent, "name" -> name, "start_ms" -> startMs, "end_ms" -> endMs) ++ attrs
}

/** In-memory span recorder around the benchmark's calls into each layer.
  * Each span sets its own Spark job group while it is open, so the
  * [[SparkCounters]] listener can key engine counters by span.
  */
final class Tracer(sc: SparkContext) {
  private val t0Nanos = System.nanoTime()
  private val t0Ms = System.currentTimeMillis().toDouble
  private var stack: List[Int] = List(0)
  private var nextId = 1
  val spans: mutable.ArrayBuffer[Span] = mutable.ArrayBuffer.empty

  def nowMs: Double = t0Ms + (System.nanoTime() - t0Nanos) / 1e6

  def span[A](name: String, attrs: Map[String, Any] = Map.empty)(body: => A): A = {
    val id = nextId
    nextId += 1
    val parent = stack.head
    stack = id :: stack
    sc.setJobGroup(Tracer.group(id), name)
    val start = nowMs
    try body
    finally {
      val end = nowMs
      stack = stack.tail
      if (stack.head == 0) sc.clearJobGroup() else sc.setJobGroup(Tracer.group(stack.head), "")
      spans += Span(id, parent, name, start, end, attrs)
    }
  }

  /** Add one child span per Spark job the listener saw under each span. */
  def addJobSpans(counters: SparkCounters): Unit = {
    val jobSpans = for {
      sp <- spans.toSeq
      job <- counters.stats(sp.group).jobs
    } yield (sp.id, job)
    jobSpans.foreach { case (parent, (jobId, startMs, endMs)) =>
      spans += Span(nextId, parent, "spark.job", startMs.toDouble, endMs.toDouble,
        Map("job_id" -> jobId))
      nextId += 1
    }
  }
}

object Tracer {
  def group(spanId: Int): String = s"perfbench-span-$spanId"
}

/** Spark-engine counters of every job, stage and task that ran under one job
  * group. Broadcast bytes are the serialized torrent pieces reported to the
  * block manager: a piece stored before a job starts is charged to that job
  * (the driver broadcasts, then submits); a piece stored while a job runs
  * (its task binary) is charged to the running job.
  */
final class GroupStats {
  var tasks: Long = 0L
  var shuffleReadBytes: Long = 0L
  var shuffleWriteBytes: Long = 0L
  var inputBytes: Long = 0L
  var resultBytes: Long = 0L
  var broadcastBytes: Long = 0L
  var gcMs: Long = 0L
  val taskMs: mutable.ArrayBuffer[Long] = mutable.ArrayBuffer.empty
  /** (job id, submission ms, completion ms) */
  val jobs: mutable.ArrayBuffer[(Int, Long, Long)] = mutable.ArrayBuffer.empty
}

final class SparkCounters extends SparkListener {
  private val byGroup = mutable.HashMap.empty[String, GroupStats]
  private val stageGroup = mutable.HashMap.empty[Int, String]
  private val runningJobs = mutable.HashMap.empty[Int, (String, Long)]
  private var pendingBroadcast = 0L
  private val NoGroup = "(none)"

  def stats(group: String): GroupStats = synchronized(byGroup.getOrElseUpdate(group, new GroupStats))

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val g = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
      .getOrElse(NoGroup)
    e.stageIds.foreach(stageGroup(_) = g)
    runningJobs(e.jobId) = (g, e.time)
    val st = stats(g)
    st.broadcastBytes += pendingBroadcast
    pendingBroadcast = 0L
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    runningJobs.remove(e.jobId).foreach { case (g, start) => stats(g).jobs += ((e.jobId, start, e.time)) }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val st = stats(stageGroup.getOrElse(e.stageId, NoGroup))
    st.tasks += 1
    st.taskMs += e.taskInfo.duration
    val m = e.taskMetrics
    if (m != null) {
      st.shuffleReadBytes += m.shuffleReadMetrics.totalBytesRead
      st.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      st.inputBytes += m.inputMetrics.bytesRead
      st.resultBytes += m.resultSize
      st.gcMs += m.jvmGCTime
    }
  }

  override def onBlockUpdated(e: SparkListenerBlockUpdated): Unit = synchronized {
    val info = e.blockUpdatedInfo
    val bytes = info.memSize + info.diskSize
    if (info.blockId.isBroadcast && info.blockId.name.contains("_piece") && bytes > 0) {
      if (runningJobs.isEmpty) pendingBroadcast += bytes
      else {
        val st = stats(runningJobs.values.head._1)
        st.broadcastBytes += bytes
      }
    }
  }
}
