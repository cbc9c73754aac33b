package perfbench

import scala.collection.immutable.ListMap

/** Per-layer metrics of a traced run, from its spans, the Spark listener's
  * counters keyed by span, and the computed cost model. Each value is the
  * median over every span of that kind (every iteration of every traced
  * round), so it is per iteration / epoch where the name says so.
  */
object LayerMetrics {
  import Main.median

  def apply(w: Workload, tracer: Tracer, counters: SparkCounters, trainers: Trainers,
            tables: Tables, genWrite: Seq[Double], sessionS: Double, warmupS: Double,
            samples: Map[String, Seq[Double]], overheadS: Double): ListMap[String, (Double, String)] = {
    val spans = tracer.spans.toSeq
    def named(n: String): Seq[Span] = spans.filter(_.name == n)
    def medSeconds(n: String): Double = median(named(n).map(_.seconds))
    /** Seconds the span's own Spark jobs ran (jobs of child spans excluded). */
    def jobSeconds(sp: Span): Double =
      counters.stats(sp.group).jobs.map { case (_, s, e) => (e - s) / 1e3 }.sum

    val out = ListMap.newBuilder[String, (Double, String)]
    out += "spark.session_start_s" -> (sessionS, "s")
    out += "jvm.warmup_s" -> (warmupS, "s")
    out += "data.gen_write_s" -> (median(genWrite), "s")
    out += "data.s_bytes" -> (tables.bytesS.toDouble, "bytes")
    out += "data.r_bytes" -> (tables.bytesR.toDouble, "bytes")
    out += "data.t_materialize_s" -> (medSeconds("data.t_materialize"), "s")
    out += "data.t_bytes" -> (trainers.tBytes.toDouble, "bytes")
    out += "data.r_collect_s" -> (medSeconds("data.r_collect"), "s")
    out += "gmm.cache_s" -> (medSeconds("gmm.cache"), "s")

    val gmmF = named("gmm.f.iter")
    val gmmSpass = median(gmmF.map(jobSeconds))
    out += "gmm.f.iter_s" -> (median(gmmF.map(_.seconds)), "s")
    out += "gmm.f.spass_s" -> (gmmSpass, "s")
    out += "gmm.f.driver_s" -> (median(gmmF.map(sp => sp.seconds - jobSeconds(sp))), "s")
    out += "gmm.f.spass_rows_per_s" -> (w.nS / gmmSpass, "rows/s")
    out += "gmm.s.iter_s" -> (medSeconds("gmm.s.iter"), "s")
    out += "gmm.m.iter_s" -> (medSeconds("gmm.m.iter"), "s")

    val nnF = named("nn.f.epoch")
    out += "nn.f.epoch_s" -> (median(nnF.map(_.seconds)), "s")
    out += "nn.f.spass_s" -> (median(nnF.map(jobSeconds)), "s")
    out += "nn.f.driver_s" -> (median(nnF.map(sp => sp.seconds - jobSeconds(sp))), "s")
    out += "nn.s.epoch_s" -> (medSeconds("nn.s.epoch"), "s")
    out += "nn.m.epoch_s" -> (medSeconds("nn.m.epoch"), "s")

    Algo.all.foreach { a =>
      val st = named(a.stepSpan).map(sp => counters.stats(sp.group))
      def med(f: GroupStats => Double): Double = median(st.map(f))
      val p = s"spark.${a.key}"
      out += s"$p.shuffle_read_bytes" -> (med(_.shuffleReadBytes.toDouble), "bytes")
      out += s"$p.shuffle_write_bytes" -> (med(_.shuffleWriteBytes.toDouble), "bytes")
      out += s"$p.input_bytes" -> (med(_.inputBytes.toDouble), "bytes")
      out += s"$p.result_bytes" -> (med(_.resultBytes.toDouble), "bytes")
      out += s"$p.broadcast_bytes" -> (med(_.broadcastBytes.toDouble), "bytes")
      out += s"$p.tasks" -> (med(_.tasks.toDouble), "count")
      out += s"$p.task_p50_ms" -> (med(g => median(g.taskMs.toSeq.map(_.toDouble))), "ms")
      out += s"$p.task_max_ms" -> (med(g => if (g.taskMs.isEmpty) Double.NaN else g.taskMs.max.toDouble), "ms")
      out += s"$p.gc_s" -> (med(_.gcMs / 1e3), "s")
    }

    CostModel.metrics(w).foreach { case (n, u, v) => out += n -> (v, u) }
    Algo.all.foreach { a =>
      val k = s"jvm.${a.key}.heap_peak_mb"
      out += k -> (median(samples.getOrElse(k, Nil)), "MB")
    }
    out += "trace.overhead_s" -> (overheadS, "s")
    out.result()
  }
}
