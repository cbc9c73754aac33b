package repro.core

import java.util.UUID
import org.apache.spark.TestBus
import org.apache.spark.sql.{AnalysisException, DataFrame}
import repro.SparkSpec
import repro.core.gmm.{DenormGmm, FGmm, FGmmMulti, GmmModel, MGmm, SGmm}
import repro.core.nn.{DenormNn, FNn, FNnMulti, MNn, NnModel, SNn}
import repro.data.{NormalizedSynth, Store}
import repro.linalg.TestKernels._

/** A binary join is the case q = 1 of the multi-way join, with S's FK
  * column `fk1`: every binary entry point gives, on the same S, the `==`
  * objectives and parameters of the q = 1 call of its multi-way twin, and
  * an S without `fk1` fails on the driver before any pass job, in M, S and
  * F of both families.
  */
class BinarySurfaceSpec extends SparkSpec {

  private val Iters = 2
  private val Lr = 0.05
  private val gmm = GmmModel.init(k = 2, d = 5, seed = 91)
  private val nn = NnModel.init(nh = 4, d = 5, seed = 92)

  /** A binary S(sid, fk1, xs, y) and R, generated. */
  private def generated: (DataFrame, DataFrame) =
    NormalizedSynth.binary(spark, nS = 1000, nR = 20, dS = 2, dR = 3, seed = 93, k = 2, withTarget = true)

  /** [[generated]] written to `store`. */
  private def binary(store: Store): (DataFrame, DataFrame) = {
    val (s, r) = generated
    (store.write("s", s), store.write("r", r))
  }

  private def collected(r: DataFrame): Array[(Long, Array[Double])] = {
    import spark.implicits._
    r.select("rid", "xr").as[(Long, Array[Double])].collect()
  }

  test("GMM: each binary entry point equals the q = 1 call of its multi-way twin") {
    val store = Store.temp(spark)
    try {
      val (s, r) = binary(store)
      Seq("M" -> (MGmm.train(store, s, r, gmm, Iters), MGmm.trainMulti(store, s, Seq(r), gmm, Iters)),
          "S" -> (SGmm.train(s, r, gmm, Iters), SGmm.trainMulti(s, Seq(r), gmm, Iters)),
          "F" -> (FGmm.train(s, r, gmm, Iters), FGmmMulti.train(s, Seq(r), gmm, Iters))).foreach {
        case (name, (a, b)) => assert(a.logliks == b.logliks && a.model.params == b.model.params, name)
      }
      val rRows = collected(r)
      Seq("emStep" -> (FGmm.emStep(s, rRows, gmm, dS = 2, dR = 3), FGmmMulti.emStep(s, Seq(rRows), gmm, dS = 2)),
          "joined" -> (DenormGmm.emStep(DenormGmm.joined(s, r), gmm),
                       DenormGmm.emStep(SGmm.joinedMulti(s, Seq(r)), gmm))).foreach {
        case (name, ((a, llA), (b, llB))) => assert(llA == llB && a.params == b.params, name)
      }
    } finally store.close()
  }

  test("NN: each binary entry point equals the q = 1 call of its multi-way twin") {
    val store = Store.temp(spark)
    try {
      val (s, r) = binary(store)
      Seq("M" -> (MNn.train(store, s, r, nn, Iters, Lr), MNn.trainMulti(store, s, Seq(r), nn, Iters, Lr)),
          "S" -> (SNn.train(s, r, nn, Iters, Lr), SNn.trainMulti(s, Seq(r), nn, Iters, Lr)),
          "F" -> (FNn.train(s, r, nn, Iters, Lr), FNnMulti.train(s, Seq(r), nn, Iters, Lr))).foreach {
        case (name, (a, b)) => assert(a.losses == b.losses && a.model.params == b.model.params, name)
      }
      val rRows = collected(r)
      Seq("epoch" -> (FNn.epoch(s, rRows, nn, Lr, dS = 2), FNnMulti.epoch(s, Seq(rRows), nn, Lr, dS = 2)),
          "joined" -> (DenormNn.epoch(DenormNn.joined(s, r), nn, Lr),
                       DenormNn.epoch(SNn.joinedMulti(s, Seq(r)), nn, Lr))).foreach {
        case (name, ((a, lA), (b, lB))) => assert(lA == lB && a.params == b.params, name)
      }
    } finally store.close()
  }

  test("an S whose FK column is not fk1 fails on the driver before any pass job, naming fk1, in M, S and F") {
    val store = Store.temp(spark)
    try {
      // not written: F starts its one read of R before it plans S's scan, and
      // the cancelled read may still run after the failure; M and S start no job
      val (s1, r) = generated
      val s = s1.withColumnRenamed("fk1", "fk")
      Seq(0 -> (() => MGmm.train(store, s, r, gmm, Iters)),
          0 -> (() => SGmm.train(s, r, gmm, Iters)),
          1 -> (() => FGmm.train(s, r, gmm, Iters)),
          0 -> (() => MNn.train(store, s, r, nn, Iters, Lr)),
          0 -> (() => SNn.train(s, r, nn, Iters, Lr)),
          1 -> (() => FNn.train(s, r, nn, Iters, Lr))).zipWithIndex.foreach { case ((reads, run), i) =>
        val sc = spark.sparkContext
        val group = UUID.randomUUID.toString
        sc.setJobGroup(group, "S without fk1")
        val e = try intercept[AnalysisException](run()) finally sc.clearJobGroup()
        TestBus.drain(sc)
        assert(e.getMessage.contains("`fk1`"), s"run $i: ${e.getMessage}")
        assert(sc.statusTracker.getJobIdsForGroup(group).length <= reads, s"run $i")
      }
    } finally store.close()
  }
}
