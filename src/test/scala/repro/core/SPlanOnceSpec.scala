package repro.core

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.core.gmm.{DenormGmm, GmmModel, SGmm}
import repro.core.nn.{DenormNn, NnModel, SNn}
import repro.data.{NormalizedSynth, Store}
import repro.linalg.TestKernels._

/** S plans its join once per run and runs it again in every pass. Its
  * objectives and models are `==` to those of an S that plans the join
  * again for every pass, for binary and q = 2 joins, with adaptive
  * execution on and off, over written tables and over generated ones that
  * were never written, whose plans read no files.
  */
class SPlanOnceSpec extends SparkSpec {

  private val Iters = 3
  private val Lr = 0.05

  /** Each S beside its relations and the width d of a joined row: binary
    * (S through [[RRel.binary]]) and q = 2, generated and not written, then
    * the same written to `store`.
    */
  private def inputs(store: Store): Seq[(String, DataFrame, Seq[DataFrame], Int)] = {
    val (s1, r1) = NormalizedSynth.binary(spark, nS = 400, nR = 15, dS = 2, dR = 3, seed = 81, k = 2,
      withTarget = true)
    val (s2, rs2) = NormalizedSynth.multiway(spark, nS = 400, dS = 2, specs = Seq((12L, 2), (10L, 3)), seed = 82,
      k = 2, withTarget = true)
    val generated = Seq(("binary", RRel.binary(s1), Seq(r1), 5), ("q=2", s2, rs2, 7))
    generated ++ generated.map { case (name, s, rs, d) =>
      (s"$name, written", store.write(s"s_$name", s),
        rs.zipWithIndex.map { case (r, i) => store.write(s"r${i + 1}_$name", r) }, d)
    }
  }

  test("S planned once gives the objectives and models of S planned again every pass") {
    val store = Store.temp(spark)
    try {
      val ins = inputs(store)
      for (on <- Seq(false, true); (name, s, rs, d) <- ins) withAdaptive(on) {
        val what = s"$name, adaptive $on"
        val gmm = GmmModel.init(k = 2, d = d, seed = 83)
        val fitG = SGmm.trainMulti(s, rs, gmm, Iters)
        val (modelG, lls) = iterate(gmm, Iters)(DenormGmm.emStep(SGmm.joinedMulti(s, rs), _))
        assert(fitG.logliks == lls && fitG.model.params == modelG.params, what)
        val nn = NnModel.init(nh = 4, d = d, seed = 84)
        val fitN = SNn.trainMulti(s, rs, nn, Iters, Lr)
        val (modelN, losses) = iterate(nn, Iters)(DenormNn.epoch(SNn.joinedMulti(s, rs), _, Lr))
        assert(fitN.losses == losses && fitN.model.params == modelN.params, what)
      }
    } finally store.close()
  }
}
