package repro.core.gmm

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.InternalRow
import repro.core.{RRel, features, iterate, key, mergePartitions, probe, scan, withBroadcast}
import repro.linalg.{Chol, Mat, Vec}
import scala.collection.parallel.CollectionConverters._

/** Layout of the flat per-Ri precompute (paper §V-C, Eq. 19–21), one
  * `Array[Double]` per relation. The E-step works in the basis of the
  * Cholesky factor L_k of Σ_k with the features ordered [R1 … Rq, S]:
  * column `rOff(i)` is Ri's first and `dR` is S's first. Tuple `pos` of Ri
  * occupies `stride(i)` doubles from `pos·stride(i)`, one block per
  * component k. With pd = x_r − μ_{Ri,k} in Ri's columns, zeros elsewhere,
  * and ζ = L_RR⁻¹ pd (zero before Ri's columns), block k holds
  *  - `−L_SR ζ` (dS doubles), Ri's share of an S row's right-hand side,
  *  - `‖ζ‖²`, the reused diagonal term,
  *  - ζ from column `tail(i)` to `dR`, for the Ra↔Rb cross terms 2·ζ_a·ζ_b
  *    (a < b), which run over Rb's columns and after. R1 is never the
  *    later relation of a pair, so its ζ is kept from R2's first column.
  */
private[gmm] final class PreLayout(val k: Int, val dS: Int, val dims: Array[Int]) extends Serializable {
  val q: Int = dims.length
  val rOff: Array[Int] = dims.scanLeft(0)(_ + _)
  val dR: Int = rOff(q)
  val tail: Array[Int] = Array.tabulate(q)(i => rOff(math.max(i, 1)))
  val width: Array[Int] = Array.tabulate(q)(i => dS + 1 + dR - tail(i))
  val stride: Array[Int] = Array.tabulate(q)(i => k * width(i))

  /** Offset of component `kk`'s block of the Ri tuple at `pos`. */
  @inline def blk(i: Int, pos: Int, kk: Int): Int = (pos * k + kk) * width(i)

  /** Offset of ζ's column `c` (≥ tail(i)) inside a block of Ri. */
  @inline def zeta(i: Int, c: Int): Int = dS + 1 + c - tail(i)
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
  * decomposes into (q+1)² block terms (Eq. 19). F evaluates them with the
  * Cholesky factor of Σ_k over the features ordered [R1 … Rq, S]: the
  * forward substitution over R's columns is linear in pd_R, so each Ri
  * tuple's share of it is precomputed once per tuple ([[PreLayout]]), and
  * each S row finishes the substitution over S's dS columns. The per-S-row
  * cost no longer scales with Σ dRi².
  *
  * Each relation's features and [[RidIndex]] are broadcast once per run.
  * Each iteration factors the reordered covariances once per component,
  * fills one flat [[PreLayout]] array per relation on all driver cores and
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

  private def step(sRows: RDD[InternalRow], rels: Broadcast[Array[RRel]],
                   model: GmmModel, dS: Int): (GmmModel, Double) = {
    val acc = pass(sRows, rels, model, dS)
    (finish(acc, rels.value, dS), acc.s.loglik)
  }

  /** `model` with its features moved from the order [S, R1 … Rq] to [R1 … Rq, S]. */
  private[gmm] def rFirst(model: GmmModel, dS: Int): GmmModel = {
    val d = model.d
    val perm = Array.range(dS, d) ++ Array.range(0, dS)
    GmmModel(model.weights, model.means.map(m => perm.map(m)),
      model.covs.map(c => new Mat(d, d, Array.tabulate(d * d)(ij => c(perm(ij / d), perm(ij % d))))))
  }

  /** The per-Ri-tuple blocks of every relation, laid out by `lay`, from the
    * [R1 … Rq, S]-ordered model's means `mu` and factors `chol`.
    */
  private[gmm] def precompute(rels: Array[RRel], mu: Array[Array[Double]], chol: Array[Chol],
                              lay: PreLayout): Array[Array[Double]] = {
    val k = lay.k; val dS = lay.dS; val dR = lay.dR
    Array.tabulate(lay.q) { i =>
      val x = rels(i).x
      val di = lay.dims(i); val from = lay.rOff(i); val tail = lay.tail(i)
      val pre = new Array[Double](rels(i).n * lay.stride(i))
      rels(i).chunks.par.foreach { range =>
        val z = new Array[Double](dR + dS)
        range.foreach { pos =>
          var kk = 0
          while (kk < k) {
            val m = mu(kk)
            var j = 0
            while (j < di) { z(from + j) = x(pos * di + j) - m(from + j); j += 1 }
            java.util.Arrays.fill(z, from + di, dR + dS, 0.0)
            val b = lay.blk(i, pos, kk)
            pre(b + dS) = chol(kk).forward(z, from, dR) // ζ into z(from until dR)
            System.arraycopy(z, dR, pre, b, dS)
            System.arraycopy(z, tail, pre, b + dS + 1, dR - tail)
            kk += 1
          }
        }
      }
      pre
    }
  }

  /** S's (fk1 … fkq, xs) rows, the FKs into R1 … Rq: planned once,
    * scanned again by every pass.
    */
  private[gmm] def sRows(s: DataFrame, q: Int): RDD[InternalRow] =
    scan(s, RRel.fkCols(q).map(key) :+ features("xs"): _*)

  /** E-step and S-side sums: one aggregation pass over S only. */
  private[gmm] def pass(sRows: RDD[InternalRow], rels: Broadcast[Array[RRel]],
                        model: GmmModel, dS: Int): FGmmMultiAccum = {
    val rs = rels.value
    val q = rs.length
    val dims = rs.map(_.width)
    val nR = rs.map(_.n)
    require(dS >= 0 && model.d == dS + dims.sum, s"model d=${model.d} != $dS + ${dims.mkString("+")}")
    val k = model.k
    val d = model.d
    val lay = new PreLayout(k, dS, dims)
    val dR = lay.dR
    val ordered = rFirst(model, dS)
    val cache = GmmComponentCache(ordered)
    // The tasks read only the factors, these small values and the broadcasts.
    val chol = cache.chol
    val logConst = cache.logConst
    val muS = model.means.map(_.take(dS))

    withBroadcast(sRows.sparkContext, precompute(rs, ordered.means, chol, lay)) { preBc =>
      mergePartitions(sRows, new FGmmMultiAccum(k, dS, dims, nR)) { it =>
        val r = rels.value
        val x = r.map(_.x)
        val pre = preBc.value
        val a = new FGmmMultiAccum(k, dS, dims, nR)
        val gamma = new Array[Double](k)
        val quad = new Array[Double](k)
        val z = new Array[Double](d)
        val pos = new Array[Int](q)
        val xs = new Array[Double](dS)
        it.foreach { row =>
          if (!probe(r, row, pos, xs)) a.orphans += 1
          else {
            var i = 0
            while (i < k) {
              val mu = muS(i)
              var j = 0
              while (j < dS) { z(dR + j) = xs(j) - mu(j); j += 1 }
              var v = 0.0
              var rel = 0
              while (rel < q) {
                val p = pre(rel)
                val b = lay.blk(rel, pos(rel), i)
                j = 0
                while (j < dS) { z(dR + j) += p(b + j); j += 1 }
                v += p(b + dS)
                val c = lay.rOff(rel)
                var m = 0
                while (m < rel) { // Rm ↔ Rrel cross term, over Rrel's columns and after
                  v += 2.0 * Vec.dot(pre(m), lay.blk(m, pos(m), i) + lay.zeta(m, c),
                                     p, b + dS + 1, dR - c)
                  m += 1
                }
                rel += 1
              }
              quad(i) = v + chol(i).forward(z, dR, d) // z_S = pd_S − Σ L_SR ζ_rel
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

  /** Read, check and index each Ri once while S's scan is planned,
    * broadcast it once, then run `iters` factorized EM iterations.
    */
  def train(s: DataFrame, rs: Seq[DataFrame], init: GmmModel, iters: Int): GmmFit = {
    val (rels, rows) = RRel.collect(rs)(sRows(s, rs.length))
    val dS = init.d - rels.map(_.width).sum
    val (model, lls) = withBroadcast(s.sparkSession.sparkContext, rels) { bc =>
      iterate(init, iters)(step(rows, bc, _, dS))
    }
    GmmFit(model, lls)
  }
}
