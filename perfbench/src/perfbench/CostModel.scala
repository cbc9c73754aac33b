package perfbench

/** Computed (not measured) per-iteration costs of one workload, from the
  * paper's §V–VI decompositions as the trainers implement them. Op counts
  * are multiply-adds of the per-row and per-R-tuple loops; byte counts are
  * the raw doubles of a structure (8 bytes each), without keys or object
  * headers. They are a model to set beside the measured phases: a phase far
  * slower than its op count suggests is overhead, not arithmetic.
  */
object CostModel {

  private def pairs(dims: Seq[Int]): Seq[(Int, Int)] =
    for (a <- dims.indices; b <- a + 1 until dims.length) yield (dims(a), dims(b))

  /** GMM over the join: per joined row and component, x − μ, the d×d
    * quadratic form, and the γ-weighted sum and outer product.
    */
  def gmmDenormOps(w: Workload): Double =
    w.nS.toDouble * w.k * (2.0 * w.d * w.d + 2.0 * w.d)

  /** F-GMM: the S-pass does S-block work per row (plus the per-row R×R cross
    * blocks when q > 1, paper Eq. 23); the R-side precompute and finish do
    * dR-wide work once per R tuple.
    */
  def gmmFactorizedOps(w: Workload): Double = {
    val dS = w.dS.toDouble
    val dims = w.rels.map(_.dR)
    val crossDots = dims.indices.map(i => dims.take(i).sum.toDouble).sum
    val crossOuter = pairs(dims).map { case (a, b) => a.toDouble * b }.sum
    val perRow = 2 * dS * dS + 2 * dS + 2 * w.q * dS + crossDots + crossOuter
    val rSide = w.rels.zipWithIndex.map { case (r, i) =>
      val dR = r.dR.toDouble
      r.nR.toDouble * (2 * dR * dR + 2 * dS * dR + 2 * dR + dims.take(i).sum * dR)
    }.sum
    w.k * (w.nS * perRow + rSide)
  }

  /** NN over the join: layer-1 forward and the δ·xᵀ outer product at full
    * width d, plus O(nh) per row for the output and backward scalars.
    */
  def nnDenormOps(w: Workload): Double = w.nS.toDouble * w.nh * (2.0 * w.d + 3)

  /** F-NN: the S-pass at width dS plus one add and one δ-sum per relation;
    * W1_R·x_r and the grouped δ·x_rᵀ once per R tuple.
    */
  def nnFactorizedOps(w: Workload): Double =
    w.nS.toDouble * w.nh * (2.0 * w.dS + 3 + 2 * w.q) +
      2.0 * w.nh * w.rels.map(r => r.nR.toDouble * r.dR).sum

  /** F-GMM per-FK partial state of one partition when it sees every key:
    * nR·K·(1 + dS) doubles per relation.
    */
  def gmmFkStateBytes(w: Workload): Double =
    w.rels.map(r => r.nR.toDouble * w.k * (1 + w.dS) * 8).sum

  /** F-NN per-FK partial state: one nh-wide δ-sum per key and relation. */
  def nnFkStateBytes(w: Workload): Double = w.rels.map(r => r.nR.toDouble * w.nh * 8).sum

  /** F-GMM broadcast: per R tuple and component the dS-vector I_SR·PDR and
    * the scalar PDRᵀ I_RR PDR (binary); the multi-way precompute also ships
    * the raw tuple, PD and the cross vectors I_mi·PD.
    */
  def gmmBroadcastBytes(w: Workload): Double =
    if (w.q == 1) w.rels.head.nR.toDouble * w.k * (w.dS + 1) * 8
    else {
      val dims = w.rels.map(_.dR)
      w.rels.zipWithIndex.map { case (r, i) =>
        r.nR.toDouble * (r.dR + w.k * (r.dR + w.dS + 1 + dims.take(i).sum)) * 8
      }.sum
    }

  /** F-NN broadcast: the nh-vector W1_R·x_r (+ b1) per R tuple. */
  def nnBroadcastBytes(w: Workload): Double = w.rels.map(_.nR.toDouble * w.nh * 8).sum

  /** (metric name, unit, value) of every computed count. */
  def metrics(w: Workload): Seq[(String, String, Double)] = Seq(
    ("gmm.f.ops_per_iter", "ops.computed", gmmFactorizedOps(w)),
    ("gmm.denorm.ops_per_iter", "ops.computed", gmmDenormOps(w)),
    ("nn.f.ops_per_iter", "ops.computed", nnFactorizedOps(w)),
    ("nn.denorm.ops_per_iter", "ops.computed", nnDenormOps(w)),
    ("gmm.f.fk_state_bytes", "bytes.computed", gmmFkStateBytes(w)),
    ("gmm.f.broadcast_payload_bytes", "bytes.computed", gmmBroadcastBytes(w)),
    ("nn.f.fk_state_bytes", "bytes.computed", nnFkStateBytes(w)),
    ("nn.f.broadcast_payload_bytes", "bytes.computed", nnBroadcastBytes(w)),
  )
}
