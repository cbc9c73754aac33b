package perfbench

import org.apache.spark.sql.DataFrame
import repro.core.gmm._
import repro.core.nn._

/** One training algorithm: model family (`gmm`, `nn`) and plan (`m`
  * materialized join, `s` streamed join, `f` factorized).
  */
final case class Algo(family: String, plan: String) {
  def key: String = s"$family.$plan"
  def metric: String = s"${family}_${plan}_train_s"
  /** Name of one EM iteration / GD epoch span. */
  def stepSpan: String = if (family == "gmm") s"$key.iter" else s"$key.epoch"
}

object Algo {
  val all: Seq[Algo] = for (f <- Seq("gmm", "nn"); p <- Seq("m", "s", "f")) yield Algo(f, p)
}

/** Runs every algorithm on one workload's tables, all from the workload's
  * fixed init. `run` makes one call to the public training entry point.
  * `runTraced` recomposes the same training from the layers' public
  * per-iteration functions, with a span around each call.
  */
final class Trainers(w: Workload, t: Tables) {
  private val spark = t.s.sparkSession
  import spark.implicits._

  private val binary = w.q == 1
  private def r: DataFrame = t.rs.head
  private val TGmm = "T_gmm"
  private val TNn = "T_nn"
  private val gmmInit = GmmModel.init(w.k, w.d, w.initSeed)
  private val nnInit = NnModel.init(w.nh, w.d, w.initSeed)

  /** Per-iteration log-likelihoods (GMM) or losses (NN). */
  def run(a: Algo): Seq[Double] = a.key match {
    case "gmm.m" =>
      (if (binary) MGmm.train(t.store, t.s, r, gmmInit, w.iters, TGmm)
       else MGmm.trainMulti(t.store, t.s, t.rs, gmmInit, w.iters, TGmm)).logliks
    case "gmm.s" =>
      (if (binary) SGmm.train(t.s, r, gmmInit, w.iters)
       else SGmm.trainMulti(t.s, t.rs, gmmInit, w.iters)).logliks
    case "gmm.f" =>
      (if (binary) FGmm.train(t.s, r, gmmInit, w.iters)
       else FGmmMulti.train(t.s, t.rs, gmmInit, w.iters)).logliks
    case "nn.m" =>
      (if (binary) MNn.train(t.store, t.s, r, nnInit, w.iters, w.lr, TNn)
       else MNn.trainMulti(t.store, t.s, t.rs, nnInit, w.iters, w.lr, TNn)).losses
    case "nn.s" =>
      (if (binary) SNn.train(t.s, r, nnInit, w.iters, w.lr)
       else SNn.trainMulti(t.s, t.rs, nnInit, w.iters, w.lr)).losses
    case "nn.f" =>
      (if (binary) FNn.train(t.s, r, nnInit, w.iters, w.lr)
       else FNnMulti.train(t.s, t.rs, nnInit, w.iters, w.lr)).losses
  }

  def runTraced(a: Algo, tr: Tracer): Seq[Double] = tr.span(s"${a.key}.train") {
    a.key match {
      case "gmm.m" =>
        val tt = tr.span("data.t_materialize")(t.store.write(TGmm, gmmJoin))
        gmmLoop(a, tr)(DenormGmm.emStep(tt, _))
      case "gmm.s" =>
        val tt = gmmJoin
        gmmLoop(a, tr)(DenormGmm.emStep(tt, _))
      case "gmm.f" =>
        val rows = tr.span("data.r_collect")(collectR())
        val dS = w.d - rows.map(_.head._2.length).sum
        if (binary) gmmLoop(a, tr)(FGmm.emStep(t.s, rows.head, _, dS, w.d - dS))
        else gmmLoop(a, tr)(FGmmMulti.emStep(t.s, rows, _, dS))
      case "nn.m" =>
        val tt = tr.span("data.t_materialize")(t.store.write(TNn, nnJoin))
        nnLoop(a, tr)(DenormNn.epoch(tt, _, w.lr))
      case "nn.s" =>
        val tt = nnJoin
        nnLoop(a, tr)(DenormNn.epoch(tt, _, w.lr))
      case "nn.f" =>
        val rows = tr.span("data.r_collect")(collectR())
        val dS = w.d - rows.map(_.head._2.length).sum
        if (binary) nnLoop(a, tr)(FNn.epoch(t.s, rows.head, _, w.lr, dS))
        else nnLoop(a, tr)(FNnMulti.epoch(t.s, rows, _, w.lr, dS))
    }
  }

  def tBytes: Long = t.store.sizeBytes(TGmm)

  private def gmmJoin: DataFrame =
    if (binary) DenormGmm.joined(t.s, r) else SGmm.joinedMulti(t.s, t.rs)

  private def nnJoin: DataFrame =
    if (binary) DenormNn.joined(t.s, r) else SNn.joinedMulti(t.s, t.rs)

  /** The R collect the factorized entry points start with. */
  private def collectR(): Seq[Array[(Long, Array[Double])]] =
    t.rs.map(_.select("rid", "xr").as[(Long, Array[Double])].collect())

  /** EM iterations; each also times one component-cache build on its own. */
  private def gmmLoop(a: Algo, tr: Tracer)(step: GmmModel => (GmmModel, Double)): Seq[Double] = {
    var model = gmmInit
    (0 until w.iters).map { i =>
      tr.span(a.stepSpan, Map("iteration" -> i)) {
        tr.span("gmm.cache")(GmmComponentCache(model))
        val (next, ll) = step(model)
        model = next
        ll
      }
    }
  }

  private def nnLoop(a: Algo, tr: Tracer)(step: NnModel => (NnModel, Double)): Seq[Double] = {
    var model = nnInit
    (0 until w.iters).map { i =>
      tr.span(a.stepSpan, Map("iteration" -> i)) {
        val (next, loss) = step(model)
        model = next
        loss
      }
    }
  }
}
