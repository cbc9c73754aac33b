package repro.core.gmm

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{array, col}
import repro.core.{RRel, iterate, mergePartitions, probe, withBroadcast}
import repro.linalg.{Mat, Vec}
import scala.collection.parallel.CollectionConverters._

/** Layout of the flat per-Ri precompute (paper §V-C, Eq. 19–21), one
  * `Array[Double]` per relation. Tuple `pos` of Ri occupies `stride(i)`
  * doubles from `pos·stride(i)`, one block per component k. With
  * pd = x_r − μ_{Ri,k}, block k holds
  *  - `v_k = I_{S,Ri}·pd` (dS doubles) for the S↔Ri cross term,
  *  - `c_k = pdᵀ I_{Ri,Ri} pd`, the reused diagonal term,
  *  - for each m < i, `t = I_{Rm,Ri}·pd` (dRm doubles) followed by `μ_{Rm,k}ᵀ t`.
  *
  * The Rm↔Ri cross term pd_mᵀ t is evaluated per S row as x_mᵀ t − μ_mᵀ t,
  * reading x_m from Rm's features, which the tasks hold for the whole run,
  * so no per-tuple pd or x_r is stored or shipped per iteration.
  */
private[gmm] final class PreLayout(val k: Int, val dS: Int, val dims: Array[Int]) extends Serializable {
  val q: Int = dims.length
  /** tOff(i)(m): offset of t for Rm inside a component block of Ri; the
    * last entry, tOff(i)(i), is the block width.
    */
  val tOff: Array[Array[Int]] = Array.tabulate(q)(i => dims.take(i).scanLeft(dS + 1)(_ + _ + 1))
  val stride: Array[Int] = Array.tabulate(q)(i => k * tOff(i)(i))

  /** Offset of component `kk`'s block of the Ri tuple at `pos`. */
  @inline def blk(i: Int, pos: Int, kk: Int): Int = (pos * k + kk) * tOff(i)(i)
}

/** Partition sums of the factorized multi-way S-pass, as a task returns
  * them: M/S's sums over the S block alone (`s`), for each attribute
  * relation Ri its γ-sums per tuple (`g`) and its finished UR block (`ur`),
  * and the off-diagonal R×R covariance blocks (`cross`, accumulated per row —
  * the paper reuses only the diagonal blocks M_ii, Eq. 23).
  *
  * Each Ri tuple's Σ γ x_S is task-local scratch: [[seal]] turns it into
  * `ur(i)(k) = Σ_r (Σ γ x_S)_r x_rᵀ` in the task, for about dRi
  * multiply-adds per scratch double, so it is never shipped. Σ γ stays per
  * tuple: `g(i)` is flat, the tuple at `pos` owns g_0 … g_{K−1} from
  * `pos·K`, and the driver finishes Σ γ x_r and LR = Σ γ x_r x_rᵀ from it
  * once, at about dRi²/2 per double, which every task would otherwise
  * repeat. Rows whose FK has no Ri tuple are not folded in; they are counted
  * in `orphans` (inner-join semantics).
  */
private[gmm] final class FGmmMultiAccum(val k: Int, val dS: Int, val dims: Array[Int],
                                        val nR: Array[Int]) extends Serializable {
  val q: Int = dims.length
  /** N, the log-likelihood, N_k, Σ γ x_S and Σ γ x_S x_Sᵀ. */
  val s: GmmAccum = new GmmAccum(k, dS)
  var orphans: Long = 0L
  val g: Array[Array[Double]] = Array.tabulate(q)(i => new Array[Double](nR(i) * k))
  // ur(i)(k): Σ γ x_S x_{Ri}ᵀ (dS × dRi), filled by seal
  val ur: Array[Array[Mat]] = Array.tabulate(q, k)((i, _) => Mat.zeros(dS, dims(i)))
  // cross(i)(j-i-1)(k): Σ γ x_{Ri} x_{Rj}ᵀ for 0 ≤ i < j < q (R-indexing)
  val cross: Array[Array[Array[Mat]]] =
    Array.tabulate(q) { i => Array.tabulate(q - i - 1) { jOff =>
      Array.fill(k)(Mat.zeros(dims(i), dims(i + 1 + jOff))) } }
  /** Σ γ x_S per Ri tuple and component: dS doubles from `(pos·K + k)·dS`. */
  @transient private lazy val sgx: Array[Array[Double]] =
    Array.tabulate(q)(i => new Array[Double](nR(i) * k * dS))

  /** Fold in one joined row: S features `xs` and, per relation Ri, the tuple
    * at position `pos(i)`, whose features are `x(i)` from `pos(i)·dims(i)`.
    */
  def add(pos: Array[Int], xs: Array[Double], x: Array[Array[Double]], gamma: Array[Double],
          ll: Double): Unit = {
    s.add(xs, gamma, ll)
    val sums = sgx
    var i = 0
    while (i < k) {
      val gi = gamma(i)
      if (gi != 0.0) { // a γ that underflowed to 0 adds nothing to the sums
        var rel = 0
        while (rel < q) {
          val slot = pos(rel) * k + i
          g(rel)(slot) += gi
          val acc = sums(rel)
          val off = slot * dS
          var j = 0
          while (j < dS) { acc(off + j) += gi * xs(j); j += 1 }
          rel += 1
        }
        // off-diagonal R×R blocks, per row (no reuse — paper Eq. 23)
        var a = 0
        while (a < q) {
          var b = a + 1
          while (b < q) {
            cross(a)(b - a - 1)(i).addOuter(gi, x(a), pos(a) * dims(a), x(b), pos(b) * dims(b))
            b += 1
          }
          a += 1
        }
      }
      i += 1
    }
  }

  /** End of the task: finish each `ur(i)` from the task's Σ γ x_S with one
    * outer product per touched Ri tuple and component. Call it once, after
    * the last `add` and before any `merge`.
    */
  def seal(x: Array[Array[Double]]): this.type = {
    val sums = sgx
    var rel = 0
    while (rel < q) {
      val gr = g(rel)
      var slot = 0
      while (slot < gr.length) {
        // g = 0 only if every γ at this tuple is 0, so its Σ γ x_S is 0 too
        if (gr(slot) != 0.0)
          ur(rel)(slot % k).addOuter(1.0, sums(rel), slot * dS, x(rel), slot / k * dims(rel))
        slot += 1
      }
      rel += 1
    }
    this
  }

  def merge(o: FGmmMultiAccum): FGmmMultiAccum = {
    require(o.k == k && o.dS == dS && o.dims.sameElements(dims) && o.nR.sameElements(nR))
    s.merge(o.s); orphans += o.orphans
    for (rel <- 0 until q) {
      Vec.addInPlace(g(rel), o.g(rel))
      for (i <- 0 until k) ur(rel)(i).addInPlace(o.ur(rel)(i))
    }
    for (a <- 0 until q; bOff <- 0 until q - a - 1; i <- 0 until k)
      cross(a)(bOff)(i).addInPlace(o.cross(a)(bOff)(i))
    this
  }
}

/** Algorithm F-GMM for joins S ⋈ R1 ⋈ … ⋈ Rq (paper §V-C); the binary
  * join of §V-B is the case q = 1 ([[FGmm]]). The quadratic form
  * decomposes into (q+1)² block terms (Eq. 19); all Ri-only terms and all
  * vectors `I_mn · PD` are precomputed once per Ri tuple, so the per-S-row
  * cost no longer scales with Σ dRi².
  *
  * Each relation's features and [[RidIndex]] are broadcast once per run.
  * Each iteration extracts the precision blocks once per component, fills
  * one flat [[PreLayout]] array per relation on all driver cores and
  * broadcasts only those; each task aggregates its S rows and finishes its
  * UR blocks, and the driver finishes Σ γ x_r and LR over chunks in
  * parallel.
  */
object FGmmMulti {

  /** One factorized EM iteration; `rRows(i)` is the collected R_{i+1}. */
  def emStep(s: DataFrame, rRows: Seq[Array[(Long, Array[Double])]], model: GmmModel,
             dS: Int): (GmmModel, Double) = {
    val rels = RRel.all(rRows)
    withBroadcast(s.sparkSession.sparkContext, rels)(step(sRows(s, rels.length), _, model, dS))
  }

  private def step(sRows: RDD[(Array[Long], Array[Double])], rels: Broadcast[Array[RRel]],
                   model: GmmModel, dS: Int): (GmmModel, Double) = {
    val acc = pass(sRows, rels, model, dS)
    (finish(acc, rels.value, dS), acc.s.loglik)
  }

  /** The per-Ri-tuple reusable blocks of every relation, laid out by `lay`. */
  private def precompute(rels: Array[RRel], model: GmmModel, inv: Array[Mat],
                         lay: PreLayout): Array[Array[Double]] = {
    val k = lay.k; val dS = lay.dS; val dims = lay.dims; val q = lay.q
    val offs = dims.scanLeft(dS)(_ + _) // offs(i) = start of Ri block; offs(q) = d
    // Precision blocks, extracted once per component (not per tuple).
    def blk(kk: Int, r0: Int, r1: Int, c: Int): Mat = inv(kk).block(r0, r1, offs(c), offs(c + 1))
    val iSR = Array.tabulate(q, k)((i, kk) => blk(kk, 0, dS, i))
    val iRR = Array.tabulate(q, k)((i, kk) => blk(kk, offs(i), offs(i + 1), i))
    val iRmRi = Array.tabulate(q)(i => Array.tabulate(i, k)((m, kk) => blk(kk, offs(m), offs(m + 1), i)))
    val muR = Array.tabulate(q, k)((i, kk) => Vec.slice(model.means(kk), offs(i), offs(i + 1)))

    Array.tabulate(q) { i =>
      val x = rels(i).x
      val di = dims(i)
      val pre = new Array[Double](rels(i).n * lay.stride(i))
      rels(i).chunks.par.foreach { range =>
        val pd = new Array[Double](di)
        range.foreach { pos =>
          var kk = 0
          while (kk < k) {
            val mu = muR(i)(kk)
            var j = 0
            while (j < di) { pd(j) = x(pos * di + j) - mu(j); j += 1 }
            val b = lay.blk(i, pos, kk)
            iSR(i)(kk).mvInto(pd, 0, pre, b)
            pre(b + dS) = iRR(i)(kk).quadForm(pd)
            var m = 0
            while (m < i) {
              val t = b + lay.tOff(i)(m)
              iRmRi(i)(m)(kk).mvInto(pd, 0, pre, t)
              pre(t + dims(m)) = Vec.dot(muR(m)(kk), 0, pre, t, dims(m))
              m += 1
            }
            kk += 1
          }
        }
      }
      pre
    }
  }

  /** S as (FKs, xs) rows, reading the FKs into R1 … Rq from `fk1 … fkq`:
    * planned once, scanned again by every pass.
    */
  private[gmm] def sRows(s: DataFrame, q: Int): RDD[(Array[Long], Array[Double])] = {
    import s.sparkSession.implicits._
    s.select(array(RRel.fkCols(q).map(col): _*) as "fks", col("xs"))
      .as[(Array[Long], Array[Double])].rdd
  }

  /** E-step and S-side sums: one aggregation pass over S only. */
  private[gmm] def pass(sRows: RDD[(Array[Long], Array[Double])], rels: Broadcast[Array[RRel]],
                        model: GmmModel, dS: Int): FGmmMultiAccum = {
    val rs = rels.value
    val q = rs.length
    val dims = rs.map(_.width)
    val nR = rs.map(_.n)
    require(dS >= 0 && model.d == dS + dims.sum, s"model d=${model.d} != $dS + ${dims.mkString("+")}")
    val k = model.k
    val cache = GmmComponentCache(model)
    val lay = new PreLayout(k, dS, dims)
    // The tasks read only these small S-side values and the broadcasts.
    val logConst = cache.logConst
    val muS = model.means.map(Vec.slice(_, 0, dS))
    val iSS = cache.inv.map(_.block(0, dS, 0, dS))

    withBroadcast(sRows.sparkContext, precompute(rs, model, cache.inv, lay)) { preBc =>
      mergePartitions(sRows, new FGmmMultiAccum(k, dS, dims, nR)) { it =>
        val r = rels.value
        val x = r.map(_.x)
        val pre = preBc.value
        val a = new FGmmMultiAccum(k, dS, dims, nR)
        val gamma = new Array[Double](k)
        val quad = new Array[Double](k)
        val pds = new Array[Double](dS)
        val pos = new Array[Int](q)
        it.foreach { case (fks, xs) =>
          if (!probe(r, fks, pos, xs, dS)) a.orphans += 1
          else {
            var i = 0
            while (i < k) {
              val mu = muS(i)
              var j = 0
              while (j < dS) { pds(j) = xs(j) - mu(j); j += 1 }
              var v = iSS(i).quadForm(pds) // S diagonal term
              var rel = 0
              while (rel < q) {
                val p = pre(rel)
                val b = lay.blk(rel, pos(rel), i)
                v += 2.0 * Vec.dot(pds, 0, p, b, dS) + p(b + dS)
                var m = 0
                while (m < rel) { // Rm ↔ Rrel cross term: (x_m − μ_m)ᵀ t
                  val t = b + lay.tOff(rel)(m)
                  v += 2.0 * (Vec.dot(x(m), pos(m) * dims(m), p, t, dims(m)) - p(t + dims(m)))
                  m += 1
                }
                rel += 1
              }
              quad(i) = v
              i += 1
            }
            val ll = GmmMath.responsibilities(logConst, quad, gamma)
            a.add(pos, xs, x, gamma, ll)
          }
        }
        a.seal(x)
      }(_.merge(_))
    }
  }

  /** One relation's driver-side sums per component — Σ γ x_r and the upper
    * triangle of Σ γ x_r x_rᵀ — one kernel per Ri tuple, read from the
    * merged γ-sums, over chunks in parallel.
    */
  private def finishRel(g: Array[Double], rel: RRel, k: Int): (Array[Array[Double]], Array[Mat]) = {
    val di = rel.width
    val x = rel.x
    rel.chunks.par.map { range =>
      val sxR = Array.fill(k)(new Array[Double](di))
      val lr  = Array.fill(k)(Mat.zeros(di, di))
      range.foreach { pos =>
        val off = pos * di
        var i = 0
        while (i < k) {
          val gi = g(pos * k + i)
          if (gi != 0.0) {
            val sx = sxR(i)
            var j = 0
            while (j < di) { sx(j) += gi * x(off + j); j += 1 }
            lr(i).addOuterUpper(gi, x, off)
          }
          i += 1
        }
      }
      (sxR, lr)
    }.seq.reduce { (a, b) =>
      var i = 0
      while (i < k) { Vec.addInPlace(a._1(i), b._1(i)); a._2(i).addInPlace(b._2(i)); i += 1 }
      a
    }
  }

  /** M-step: finish each relation's Σ γ x_r and LR, lay them out with the S
    * block, the tasks' UR blocks and the cross blocks as the upper triangle
    * of the full Σ γ x xᵀ (Eq. 23), and apply M/S's M-step to the full sums.
    */
  private[gmm] def finish(acc: FGmmMultiAccum, rels: Array[RRel], dS: Int): GmmModel = {
    val k = acc.k
    val offs = acc.dims.scanLeft(dS)(_ + _)
    val full = new GmmAccum(k, offs(acc.q))
    full.n = acc.s.n
    full.loglik = acc.s.loglik
    System.arraycopy(acc.s.nk, 0, full.nk, 0, k)
    for (i <- 0 until k) {
      System.arraycopy(acc.s.sx(i), 0, full.sx(i), 0, dS)
      full.sxx(i).setBlock(0, 0, acc.s.sxx(i))
    }
    for (a <- 0 until acc.q) {
      val (sxR, lr) = finishRel(acc.g(a), rels(a), k)
      for (i <- 0 until k) {
        System.arraycopy(sxR(i), 0, full.sx(i), offs(a), acc.dims(a))
        full.sxx(i).setBlock(0, offs(a), acc.ur(a)(i))
        full.sxx(i).setBlock(offs(a), offs(a), lr(i))
        for (b <- a + 1 until acc.q) full.sxx(i).setBlock(offs(a), offs(b), acc.cross(a)(b - a - 1)(i))
      }
    }
    full.toModel
  }

  /** Collect, check and index each Ri once, broadcast it once, then run
    * `iters` factorized EM iterations.
    */
  def train(s: DataFrame, rs: Seq[DataFrame], init: GmmModel, iters: Int): GmmFit = {
    val rels = RRel.collect(rs)
    val dS = init.d - rels.map(_.width).sum
    val rows = sRows(s, rels.length)
    val (model, lls) = withBroadcast(s.sparkSession.sparkContext, rels) { bc =>
      iterate(init, iters)(step(rows, bc, _, dS))
    }
    GmmFit(model, lls)
  }
}
