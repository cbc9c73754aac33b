package perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.nio.file.{Files, Path, Paths}
import org.apache.spark.BenchBus
import org.apache.spark.sql.SparkSession
import repro.data.Store
import scala.collection.immutable.ListMap
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** The benchmark process: one workload, one seed, closed loop with one
  * training run in flight at a time.
  *
  * {{{
  * perfbench.Main --workload wide-r --seed 1 --seconds 20 --trace 0
  *                --work-dir DIR --trace-dir DIR [--smoke] [--git-sha SHA]
  * }}}
  *
  * Prints a `RUN_RECORD {…}` line, then as its last line the result object
  * with `correct`, `attempted`, `failed` and `metrics`.
  */
object Main {

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        smoke: Boolean, workDir: Path, traceDir: Path, gitSha: String,
                        sourceSha: String)

  /** M/S/F must agree at every iteration within this relative difference —
    * the rule of the repo's Table VI/VII harness.
    */
  val AgreeRel = 1e-6
  val SetupReps = 3
  val WarmupSeconds = 15.0
  val WarmupMinPasses = 2
  val MaxCores = 4
  val ShufflePartitions = 8

  def main(argv: Array[String]): Unit = {
    val code =
      try run(parse(argv))
      catch { case NonFatal(e) => e.printStackTrace(); 1 }
    sys.exit(code)
  }

  private def parse(argv: Array[String]): Args = {
    val kv = mutable.HashMap.empty[String, String]
    var smoke = false
    var i = 0
    while (i < argv.length) {
      argv(i) match {
        case "--smoke" => smoke = true; i += 1
        case flag if flag.startsWith("--") && i + 1 < argv.length =>
          kv(flag.drop(2)) = argv(i + 1); i += 2
        case other => throw new IllegalArgumentException(s"unexpected argument '$other'")
      }
    }
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(need("workload"), need("seed").toLong, need("seconds").toDouble, need("trace") == "1",
      smoke, Paths.get(need("work-dir")), Paths.get(need("trace-dir")),
      kv.getOrElse("git-sha", "unknown"), kv.getOrElse("source-sha256", "unknown"))
  }

  private def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.length % 2 == 1) s(s.length / 2)
    else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  private def relDiff(a: Double, b: Double): Double = math.abs(a - b) / math.max(1e-12, math.abs(b))

  /** Largest per-iteration relative difference of two sequences of one length. */
  private def maxRelDiff(a: Seq[Double], b: Seq[Double]): Double =
    a.zip(b).map { case (x, y) => relDiff(y, x) }.maxOption.getOrElse(0.0)

  /** Algorithms of one family whose run threw, produced a non-finite or
    * short sequence, or left the per-iteration median of the family's runs
    * by more than [[AgreeRel]].
    */
  def disagreeing(seqs: Map[Algo, Option[Seq[Double]]], iters: Int): Set[Algo] = {
    val ok = seqs.collect { case (a, Some(s)) if s.length == iters && s.forall(_.isFinite) => a -> s }
    if (ok.isEmpty) seqs.keySet
    else {
      val ref = (0 until iters).map(i => median(ok.values.map(_(i)).toSeq))
      seqs.keySet.filter(a => !ok.contains(a) || ok(a).indices.exists(i => relDiff(ok(a)(i), ref(i)) > AgreeRel))
    }
  }

  private val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP)

  def run(args: Args): Int = {
    val base = Workloads.byName(args.workload)
    val w = if (args.smoke) base.smoke else base
    val cores = math.min(MaxCores, Runtime.getRuntime.availableProcessors())
    Files.createDirectories(args.workDir)

    val (spark, sessionS) = timed {
      SparkSession.builder
        .master(s"local[$cores]")
        .appName(s"perfbench-${w.name}")
        .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
        .config("spark.sql.autoBroadcastJoinThreshold", -1L)
        .config("spark.sql.adaptive.enabled", false)
        .config("spark.ui.enabled", false)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.driver.bindAddress", "127.0.0.1")
        .config("spark.sql.warehouse.dir", args.workDir.resolve("warehouse").toString)
        .getOrCreate()
    }
    try measure(args, w, spark, sessionS, cores)
    finally spark.stop()
  }

  private def measure(args: Args, w: Workload, spark: SparkSession,
                      sessionS: Double, cores: Int): Int = {
    val sc = spark.sparkContext
    val log = Console.err

    // Warm-up: untimed passes of generate-and-write plus one round of every
    // algorithm on the workload's own tables, until JIT, Spark codegen and
    // the Parquet paths are warm. A fixed two passes were not enough: timed
    // rounds and gen+writes after them still sped up by 20-30% over the next
    // half minute. Traced code is warmed too when it will be timed.
    var warmPasses = 0
    val (_, warmupS) = timed {
      val store = new Store(spark, args.workDir.resolve("warm"))
      val until = System.nanoTime() + (if (args.smoke) 0L else (WarmupSeconds * 1e9).toLong)
      try {
        while (warmPasses < (if (args.smoke) 1 else WarmupMinPasses) || System.nanoTime() < until) {
          val tr = new Trainers(w, Tables.generate(spark, w, args.seed, store))
          Algo.all.foreach(tr.run)
          if (args.trace) Algo.all.foreach(tr.runTraced(_, new Tracer(sc)))
          warmPasses += 1
        }
      } finally store.close()
    }

    // Set-up: generate and write the base tables, several times; keep the
    // last. `setup_s` is the median: the per-dataset cost that work moved out
    // of training into set-up would raise. Session start and warm-up are
    // paid once per process and reported beside it, in the traced run.
    val reps = if (args.smoke) 1 else SetupReps
    val genWrite = mutable.ArrayBuffer.empty[Double]
    var tables: Tables = null
    (0 until reps).foreach { rep =>
      if (tables != null) tables.store.close()
      val store = new Store(spark, args.workDir.resolve(s"data-$rep"))
      val (t, s) = timed(Tables.generate(spark, w, args.seed, store))
      require(t.s.count() == w.nS, s"S has ${t.s.count()} rows, expected ${w.nS}")
      t.rs.zip(w.rels).foreach { case (r, spec) =>
        require(r.count() == spec.nR, s"R has ${r.count()} rows, expected ${spec.nR}") }
      tables = t
      genWrite += s
    }
    val setupS = median(genWrite.toSeq)
    log.println(f"[perfbench] ${w.name} seed=${args.seed} session=$sessionS%.2fs warmup=$warmupS%.2fs/$warmPasses " +
      s"gen_write=${genWrite.map(x => f"$x%.2f").mkString(",")}s")

    val trainers = new Trainers(w, tables)
    // The first round on freshly written tables is still slower (file
    // listing, Parquet footers), so it is not timed.
    if (!args.smoke) Algo.all.foreach(trainers.run)
    var attempted = 0
    var failed = 0
    val samples = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Double]]
    def sample(name: String, v: Double): Unit = samples.getOrElseUpdate(name, mutable.ArrayBuffer.empty) += v
    val firstSeqs = mutable.LinkedHashMap.empty[String, Seq[Double]]
    val firstTracedSeqs = mutable.LinkedHashMap.empty[String, Seq[Double]]
    val untracedRound = mutable.ArrayBuffer.empty[Double]
    val tracedRound = mutable.ArrayBuffer.empty[Double]
    var tracedMatches = true
    // Spark's reduce merges partition results in task completion order, so
    // two runs of one algorithm differ in the last bits, and EM amplifies
    // that over its iterations. Recorded to show how far repeats drift.
    val untracedRepeatRel = mutable.LinkedHashMap.empty[String, Double]
    val tracedRepeatRel = mutable.LinkedHashMap.empty[String, Double]
    def noteRepeat(into: mutable.Map[String, Double], a: Algo, x: Seq[Double], y: Seq[Double]): Unit =
      into(a.key) = math.max(into.getOrElse(a.key, 0.0), maxRelDiff(x, y))
    val counters = new SparkCounters
    val tracer = new Tracer(sc)

    /** One pass over the six algorithms; returns each run's sequence. */
    def round(traced: Boolean): Map[Algo, Option[Seq[Double]]] = {
      var total = 0.0
      val out = Algo.all.map { a =>
        attempted += 1
        // Every run starts on a collected heap, so no run pays for the
        // garbage of the one before it.
        System.gc()
        if (traced) heapPools.foreach(_.resetPeakUsage())
        val res =
          try {
            val (seq, s) = timed(if (traced) trainers.runTraced(a, tracer) else trainers.run(a))
            total += s
            if (traced) {
              sample(s"jvm.${a.key}.heap_peak_mb", heapPools.map(_.getPeakUsage.getUsed).sum / 1048576.0)
              BenchBus.drain(sc)
            } else sample(a.metric, s)
            Some(seq)
          } catch {
            case NonFatal(e) =>
              log.println(s"[perfbench] ${a.key} failed: $e")
              None
          }
        a -> res
      }.toMap
      Algo.all.groupBy(_.family).values.foreach { fam =>
        val bad = disagreeing(fam.map(a => a -> out(a)).toMap, w.iters)
        bad.foreach(a => log.println(s"[perfbench] ${a.key} rejected: ${out(a).map(_.mkString(",")).getOrElse("threw")}"))
        failed += bad.size
        if (!traced) bad.filter(a => out(a).isDefined).foreach(a => samples(a.metric).dropRightInPlace(1))
      }
      if (out.values.forall(_.isDefined)) (if (traced) tracedRound else untracedRound) += total
      val first = if (traced) firstTracedSeqs else firstSeqs
      if (first.isEmpty) Algo.all.foreach(a => out(a).foreach(s => first(a.key) = s))
      else if (!traced) Algo.all.foreach(a => (first.get(a.key), out(a)) match {
        case (Some(f), Some(s)) if f.length == s.length => noteRepeat(untracedRepeatRel, a, f, s)
        case _ =>
      })
      out
    }

    // Measurement: closed loop for `seconds`; a traced run alternates an
    // untraced round (tracing overhead baseline) with a traced one.
    val deadline = System.nanoTime() + (args.seconds * 1e9).toLong
    var rounds = 0
    while (rounds == 0 || System.nanoTime() < deadline) {
      val plain = round(traced = false)
      if (args.trace) {
        sc.addSparkListener(counters)
        val traced = try round(traced = true) finally { BenchBus.drain(sc); sc.removeSparkListener(counters) }
        // The traced run must be the same training as the untraced one, by
        // the rule M, S and F must meet: exact equality is out of reach
        // while Spark's merge order varies (see untracedRepeatRel).
        Algo.all.foreach { a =>
          (plain(a), traced(a)) match {
            case (Some(p), Some(t)) if p.length != t.length || maxRelDiff(p, t) > AgreeRel =>
              tracedMatches = false
              failed += 1
              log.println(s"[perfbench] traced ${a.key} does not repeat the untraced run: " +
                s"${p.mkString(",")} vs ${t.mkString(",")}")
            case (Some(p), Some(t)) => noteRepeat(tracedRepeatRel, a, p, t)
            case _ => // a run that threw is already counted by round()
          }
        }
      }
      rounds += 1
    }

    val metrics = ListMap.newBuilder[String, (Double, String)]
    if (!args.trace) {
      metrics += "setup_s" -> (setupS, "s")
      Algo.all.foreach(a => metrics += a.metric -> (samples.get(a.metric).map(b => median(b.toSeq)).getOrElse(Double.NaN), "s"))
    } else {
      tracer.addJobSpans(counters)
      metrics ++= LayerMetrics(w, tracer, counters, trainers, tables, genWrite.toSeq, sessionS, warmupS,
        samples.toMap.map { case (k, v) => k -> v.toSeq },
        median(tracedRound.toSeq) - median(untracedRound.toSeq))
    }
    val metricMap = metrics.result()

    val traceFile =
      if (args.trace) {
        Files.createDirectories(args.traceDir)
        val f = args.traceDir.resolve(s"${w.name}-seed${args.seed}${if (args.smoke) "-smoke" else ""}.json")
        Files.writeString(f, Json.render(ListMap("workload" -> w.name, "seed" -> args.seed,
          "spans" -> tracer.spans.sortBy(_.startMs).map(_.record))))
        f.toString
      } else null

    val speedups = Algo.all.groupBy(_.family).toSeq.sortBy(_._1).map { case (fam, _) =>
      def med(p: String) = samples.get(s"${fam}_${p}_train_s").map(b => median(b.toSeq)).getOrElse(Double.NaN)
      val (baseName, baseS) = Seq("m", "s").map(p => s"${fam}_${p}_train_s" -> med(p)).minBy(_._2)
      fam -> ListMap("min_ms_over_f" -> baseS / med("f"), "base" -> baseName, "base_s" -> baseS,
        "f_s" -> med("f"), "note" -> "information only, not a gated metric")
    }
    val record = ListMap(
      "git_sha" -> args.gitSha, "source_sha256" -> args.sourceSha,
      "nproc" -> Runtime.getRuntime.availableProcessors(), "spark_master" -> sc.master,
      "cores_used" -> cores, "heap_max_mb" -> Runtime.getRuntime.maxMemory / 1048576.0,
      "shuffle_partitions" -> ShufflePartitions, "auto_broadcast_join_threshold" -> -1,
      "adaptive_execution" -> false,
      "spark_version" -> spark.version, "scala_version" -> scala.util.Properties.versionNumberString,
      "jdk" -> System.getProperty("java.version"), "seed" -> args.seed, "seconds" -> args.seconds,
      "trace" -> args.trace, "smoke" -> args.smoke, "workload" -> w.record,
      "load" -> "closed loop, one client, one training run in flight",
      "rounds" -> rounds, "setup_reps" -> reps, "session_start_s" -> sessionS,
      "warmup_s" -> warmupS, "warmup_passes" -> warmPasses,
      "gen_write_s" -> genWrite.toSeq, "samples" -> samples.map { case (k, v) => k -> v.toSeq },
      "sequences" -> firstSeqs,
      "traced_sequences" -> (if (args.trace) firstTracedSeqs else null), "speedup" -> ListMap(speedups: _*),
      "traced_matches_untraced" -> (if (args.trace) tracedMatches else null),
      "untraced_repeat_max_rel" -> untracedRepeatRel,
      "traced_repeat_max_rel" -> (if (args.trace) tracedRepeatRel else null),
      "computed_metrics" -> CostModel.metrics(w).map(_._1), "trace_file" -> traceFile)
    println("RUN_RECORD " + Json.render(record))

    val complete = metricMap.values.forall(_._1.isFinite)
    println(Json.render(ListMap(
      "correct" -> (failed == 0 && complete), "attempted" -> attempted, "failed" -> failed,
      "metrics" -> metricMap.map { case (k, (v, u)) => k -> ListMap("value" -> v, "unit" -> u) })))
    0
  }
}
