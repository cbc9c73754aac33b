package repro.core.gmm

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{array, col}
import repro.core.{RRel, iterate, probe}
import repro.linalg.{Mat, Vec}
import scala.collection.parallel.CollectionConverters._

/** Layout of the flat per-Ri precompute (paper §V-C, Eq. 19–21), one
  * `Array[Double]` per relation. Tuple `pos` of Ri occupies `stride(i)`
  * doubles from `pos·stride(i)`: its features x_r, then one block per
  * component k. With pd = x_r − μ_{Ri,k}, block k holds
  *  - `v_k = I_{S,Ri}·pd` (dS doubles) for the S↔Ri cross term,
  *  - `c_k = pdᵀ I_{Ri,Ri} pd`, the reused diagonal term,
  *  - for each m < i, `t = I_{Rm,Ri}·pd` (dRm doubles) followed by `μ_{Rm,k}ᵀ t`.
  *
  * The Rm↔Ri cross term pd_mᵀ t is evaluated per S row as x_mᵀ t − μ_mᵀ t,
  * reading x_m from Rm's array, so no per-tuple pd is stored or shipped.
  */
private[gmm] final class PreLayout(val k: Int, val dS: Int, val dims: Array[Int]) extends Serializable {
  val q: Int = dims.length
  /** tOff(i)(m): offset of t for Rm inside a component block of Ri; the
    * last entry, tOff(i)(i), is the block width.
    */
  val tOff: Array[Array[Int]] = Array.tabulate(q)(i => dims.take(i).scanLeft(dS + 1)(_ + _ + 1))
  val stride: Array[Int] = Array.tabulate(q)(i => dims(i) + k * tOff(i)(i))

  /** Offset of component `kk`'s block of the Ri tuple stored from `base`. */
  @inline def blk(i: Int, base: Int, kk: Int): Int = base + dims(i) + kk * tOff(i)(i)
}

/** Partition-local statistics of the factorized multi-way S-pass: M/S's
  * sums over the S block alone, per-FK grouped statistics for **each**
  * attribute relation, and the off-diagonal R×R covariance blocks
  * (accumulated per row — the paper reuses only the diagonal blocks M_ii,
  * Eq. 23).
  *
  * `perFk(i)` is flat and indexed by Ri position: the tuple at `pos` owns
  * [g_0 … g_{K−1}, sgx_0 (dS) … sgx_{K−1} (dS)] from `pos·K·(1+dS)`, and
  * merging is an element-wise add. Rows whose FK has no Ri tuple are not
  * folded in; they are counted in `orphans` (inner-join semantics).
  */
private[gmm] final class FGmmMultiAccum(val k: Int, val dS: Int, val dims: Array[Int],
                                        val nR: Array[Int]) extends Serializable {
  val q: Int = dims.length
  /** N, the log-likelihood, N_k, Σ γ x_S and Σ γ x_S x_Sᵀ. */
  val s: GmmAccum = new GmmAccum(k, dS)
  var orphans: Long = 0L
  val perFk: Array[Array[Double]] = Array.tabulate(q)(i => new Array[Double](nR(i) * k * (1 + dS)))
  // cross(i)(j-i-1)(k): Σ γ x_{Ri} x_{Rj}ᵀ for 0 ≤ i < j < q (R-indexing)
  val cross: Array[Array[Array[Mat]]] =
    Array.tabulate(q) { i => Array.tabulate(q - i - 1) { jOff =>
      Array.fill(k)(Mat.zeros(dims(i), dims(i + 1 + jOff))) } }

  /** Fold in one joined row: S features `xs` and, per relation Ri, the tuple
    * at position `pos(i)`, whose features are
    * `xr(i)(xrOff(i) until xrOff(i) + dims(i))`.
    */
  def add(pos: Array[Int], xs: Array[Double], xr: Array[Array[Double]], xrOff: Array[Int],
          gamma: Array[Double], ll: Double): Unit = {
    s.add(xs, gamma, ll)
    val w = k * (1 + dS)
    var i = 0
    while (i < k) {
      val g = gamma(i)
      if (g != 0.0) { // a γ that underflowed to 0 adds nothing to the sums
        var rel = 0
        while (rel < q) {
          val slot = perFk(rel)
          val base = pos(rel) * w
          slot(base + i) += g
          val off = base + k + i * dS
          var j = 0
          while (j < dS) { slot(off + j) += g * xs(j); j += 1 }
          rel += 1
        }
        // off-diagonal R×R blocks, per row (no reuse — paper Eq. 23)
        var a = 0
        while (a < q) {
          var b = a + 1
          while (b < q) {
            cross(a)(b - a - 1)(i).addOuter(g, xr(a), xrOff(a), xr(b), xrOff(b))
            b += 1
          }
          a += 1
        }
      }
      i += 1
    }
  }

  def merge(o: FGmmMultiAccum): FGmmMultiAccum = {
    require(o.k == k && o.dS == dS && o.dims.sameElements(dims) && o.nR.sameElements(nR))
    s.merge(o.s); orphans += o.orphans
    var rel = 0
    while (rel < q) { Vec.addInPlace(perFk(rel), o.perFk(rel)); rel += 1 }
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
  * Each iteration extracts the precision blocks once per component, fills
  * one flat [[PreLayout]] array per relation on all driver cores, broadcasts
  * those arrays with the relations' [[RidIndex]]es, aggregates S alone into
  * flat per-position state, and finishes each relation over chunks in
  * parallel.
  */
object FGmmMulti {

  /** One factorized EM iteration; `rRows(i)` is the collected R_{i+1}. */
  def emStep(s: DataFrame, rRows: Seq[Array[(Long, Array[Double])]], model: GmmModel,
             dS: Int): (GmmModel, Double) = {
    val rels = RRel.all(rRows)
    step(sRows(s, rels.length), rels, model, dS)
  }

  private def step(sRows: RDD[(Array[Long], Array[Double])], rels: Array[RRel], model: GmmModel,
                   dS: Int): (GmmModel, Double) = {
    val acc = pass(sRows, rels, model, dS)
    (finish(acc, rels, dS), acc.s.loglik)
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
      val rows = rels(i).rows
      val di = dims(i)
      val pre = new Array[Double](rows.length * lay.stride(i))
      rels(i).chunks.par.foreach { range =>
        val pd = new Array[Double](di)
        range.foreach { pos =>
          val xr = rows(pos)._2
          val base = pos * lay.stride(i)
          System.arraycopy(xr, 0, pre, base, di)
          var kk = 0
          while (kk < k) {
            val mu = muR(i)(kk)
            var j = 0
            while (j < di) { pd(j) = xr(j) - mu(j); j += 1 }
            val b = lay.blk(i, base, kk)
            iSR(i)(kk).mvInto(pd, pre, b)
            pre(b + dS) = iRR(i)(kk).quadForm(pd)
            var m = 0
            while (m < i) {
              val t = b + lay.tOff(i)(m)
              iRmRi(i)(m)(kk).mvInto(pd, pre, t)
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
  private[gmm] def pass(sRows: RDD[(Array[Long], Array[Double])], rels: Array[RRel],
                        model: GmmModel, dS: Int): FGmmMultiAccum = {
    val q = rels.length
    val dims = rels.map(_.width)
    val nR = rels.map(_.rows.length)
    require(dS >= 0 && model.d == dS + dims.sum, s"model d=${model.d} != $dS + ${dims.mkString("+")}")
    val k = model.k
    val cache = GmmComponentCache(model)
    val lay = new PreLayout(k, dS, dims)
    // The tasks read only these small S-side values and the broadcast.
    val logConst = cache.logConst
    val muS = model.means.map(Vec.slice(_, 0, dS))
    val iSS = cache.inv.map(_.block(0, dS, 0, dS))
    val bc = sRows.sparkContext.broadcast((rels.map(_.index), precompute(rels, model, cache.inv, lay)))

    try {
      sRows
        .mapPartitions { it =>
          val (index, pre) = bc.value
          val a = new FGmmMultiAccum(k, dS, dims, nR)
          val gamma = new Array[Double](k)
          val quad = new Array[Double](k)
          val pds = new Array[Double](dS)
          val pos = new Array[Int](q)
          val xOff = new Array[Int](q)
          it.foreach { case (fks, xs) =>
            if (!probe(index, fks, pos, xs, dS)) a.orphans += 1
            else {
              var rel = 0
              while (rel < q) { xOff(rel) = pos(rel) * lay.stride(rel); rel += 1 }
              var i = 0
              while (i < k) {
                val mu = muS(i)
                var j = 0
                while (j < dS) { pds(j) = xs(j) - mu(j); j += 1 }
                var v = iSS(i).quadForm(pds) // S diagonal term
                rel = 0
                while (rel < q) {
                  val p = pre(rel)
                  val b = lay.blk(rel, xOff(rel), i)
                  v += 2.0 * Vec.dot(pds, 0, p, b, dS) + p(b + dS)
                  var m = 0
                  while (m < rel) { // Rm ↔ Rrel cross term: (x_m − μ_m)ᵀ t
                    val t = b + lay.tOff(rel)(m)
                    v += 2.0 * (Vec.dot(pre(m), xOff(m), p, t, dims(m)) - p(t + dims(m)))
                    m += 1
                  }
                  rel += 1
                }
                quad(i) = v
                i += 1
              }
              val ll = GmmMath.responsibilities(logConst, quad, gamma)
              a.add(pos, xs, pre, xOff, gamma, ll)
            }
          }
          Iterator.single(a)
        }
        .reduce(_.merge(_))
    } finally bc.destroy()
  }

  /** One relation's R-side sums per component — Σ γ x_r, Σ (Σγ x_S) x_rᵀ and
    * the upper triangle of Σ γ x_r x_rᵀ — one kernel per Ri tuple, read from
    * the flat state, over chunks in parallel.
    */
  private def finishRel(state: Array[Double], rel: RRel, k: Int,
                        dS: Int): (Array[Array[Double]], Array[Mat], Array[Mat]) = {
    val w = k * (1 + dS)
    val di = rel.width
    rel.chunks.par.map { range =>
      val sxR = Array.fill(k)(new Array[Double](di))
      val ur  = Array.fill(k)(Mat.zeros(dS, di))
      val lr  = Array.fill(k)(Mat.zeros(di, di))
      range.foreach { pos =>
        val xr = rel.rows(pos)._2
        val base = pos * w
        var i = 0
        while (i < k) {
          val g = state(base + i)
          // g = 0 only if every γ at this tuple is 0, so its Σγ x_S is 0 too
          if (g != 0.0) {
            Vec.axpy(g, xr, sxR(i))
            lr(i).addOuterUpper(g, xr)
            ur(i).addOuter(1.0, state, base + k + i * dS, xr, 0)
          }
          i += 1
        }
      }
      (sxR, ur, lr)
    }.seq.reduce { (x, y) =>
      var i = 0
      while (i < k) {
        Vec.addInPlace(x._1(i), y._1(i)); x._2(i).addInPlace(y._2(i)); x._3(i).addInPlace(y._3(i))
        i += 1
      }
      x
    }
  }

  /** M-step: finish each relation's R-side blocks, lay them out with the S
    * block as the upper triangle of the full Σ γ x xᵀ (Eq. 23), and apply
    * M/S's M-step to the full sums.
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
      val (sxR, ur, lr) = finishRel(acc.perFk(a), rels(a), k, dS)
      for (i <- 0 until k) {
        System.arraycopy(sxR(i), 0, full.sx(i), offs(a), acc.dims(a))
        full.sxx(i).setBlock(0, offs(a), ur(i))
        full.sxx(i).setBlock(offs(a), offs(a), lr(i))
        for (b <- a + 1 until acc.q) full.sxx(i).setBlock(offs(a), offs(b), acc.cross(a)(b - a - 1)(i))
      }
    }
    full.toModel
  }

  /** Collect, check and index each Ri once, then run `iters` factorized EM
    * iterations.
    */
  def train(s: DataFrame, rs: Seq[DataFrame], init: GmmModel, iters: Int): GmmFit = {
    val rels = RRel.collect(rs)
    val dS = init.d - rels.map(_.width).sum
    val rows = sRows(s, rels.length)
    val (model, lls) = iterate(init, iters)(step(rows, rels, _, dS))
    GmmFit(model, lls)
  }
}
