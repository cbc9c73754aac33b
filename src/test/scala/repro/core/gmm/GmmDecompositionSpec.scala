package repro.core.gmm

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropCheck
import repro.core.RRel
import repro.linalg.{Mat, Vec}
import repro.linalg.TestKernels._

/** Property tests of the paper's exact decompositions (Eq. 7–24): the
  * factorized block expressions equal the full-width expressions for random
  * inputs and random block splits. These are the identities F-GMM rests on.
  */
class GmmDecompositionSpec extends AnyFunSuite with PropCheck {

  private def symGen(maxD: Int = 10): Gen[(Mat, Array[Double], Int)] =
    for {
      d    <- Gen.choose(2, maxD)
      dS   <- Gen.choose(1, d - 1)
      xs   <- Gen.listOfN(d * d, Gen.choose(-3.0, 3.0))
      v    <- Gen.listOfN(d, Gen.choose(-5.0, 5.0))
    } yield {
      val raw = new Mat(d, d, xs.toArray)
      val sym = raw.mm(raw.transpose) // symmetric like Σ⁻¹
      (sym, v.toArray, dS)
    }

  test("Eq. 7-12: blocked quadratic form UL+UR+LL+LR equals the full form") {
    check(symGen()) { case (ik, pd, dS) =>
      val d = pd.length
      val pds = Vec.slice(pd, 0, dS)
      val pdr = Vec.slice(pd, dS, d)
      val iSS = ik.block(0, dS, 0, dS)
      val iSR = ik.block(0, dS, dS, d)
      val iRS = ik.block(dS, d, 0, dS)
      val iRR = ik.block(dS, d, dS, d)
      val full = ik.quadForm(pd)
      val ul = iSS.quadForm(pds)
      val urTerm = iSR.bilinear(pds, pdr)
      val llTerm = iRS.bilinear(pdr, pds)
      val lrTerm = iRR.quadForm(pdr)
      assert(math.abs(full - (ul + urTerm + llTerm + lrTerm)) < 1e-8)
    }
  }

  test("symmetric I makes UR == LL, enabling the 2·cross shortcut F-GMM uses") {
    check(symGen()) { case (ik, pd, dS) =>
      val d = pd.length
      val pds = Vec.slice(pd, 0, dS)
      val pdr = Vec.slice(pd, dS, d)
      val iSR = ik.block(0, dS, dS, d)
      val iRS = ik.block(dS, d, 0, dS)
      assert(math.abs(iSR.bilinear(pds, pdr) - iRS.bilinear(pdr, pds)) < 1e-9)
      // the reusable form: w = I_SR · pdr, cross = 2·(pds·w)
      val w = iSR.mv(pdr)
      assert(math.abs(ik.quadForm(pd) -
        (ik.block(0, dS, 0, dS).quadForm(pds) + 2 * Vec.dot(pds, w) +
         ik.block(dS, d, dS, d).quadForm(pdr))) < 1e-8)
    }
  }

  test("Eq. 14-18: blocked outer product assembles to the full outer product") {
    check(symGen()) { case (_, pd, dS) =>
      val d = pd.length
      val pds = Vec.slice(pd, 0, dS)
      val pdr = Vec.slice(pd, dS, d)
      val full = Mat.outer(pd, pd)
      val assembled = Mat.zeros(d, d)
      assembled.setBlock(0, 0, Mat.outer(pds, pds))    // UL
      assembled.setBlock(0, dS, Mat.outer(pds, pdr))   // UR
      assembled.setBlock(dS, 0, Mat.outer(pdr, pds))   // LL
      assembled.setBlock(dS, dS, Mat.outer(pdr, pdr))  // LR
      assert(assembled.maxAbsDiff(full) < 1e-12)
    }
  }

  test("Eq. 13: mean decomposition — concatenated partial sums equal the full sum") {
    val rnd = new scala.util.Random(3)
    val n = 50; val dS = 3; val dR = 4; val d = dS + dR
    val xs = Array.fill(n)(Array.fill(d)(rnd.nextGaussian()))
    val g  = Array.fill(n)(rnd.nextDouble())
    val full = new Array[Double](d)
    xs.indices.foreach(i => Vec.axpy(g(i), xs(i), full))
    val sPart = new Array[Double](dS); val rPart = new Array[Double](dR)
    xs.indices.foreach { i =>
      Vec.axpy(g(i), Vec.slice(xs(i), 0, dS), sPart)
      Vec.axpy(g(i), Vec.slice(xs(i), dS, d), rPart)
    }
    assert(Vec.maxAbsDiff(Vec.concat(sPart, rPart), full) < 1e-10)
  }

  test("grouped-by-FK reduction: Σ_n γ_n·x_R[fk_n] == Σ_r (Σ_{fk=r} γ)·x_r") {
    val rnd = new scala.util.Random(11)
    val nR = 8; val nS = 200; val dR = 5
    val xr = Array.fill(nR)(Array.fill(dR)(rnd.nextGaussian()))
    val fk = Array.fill(nS)(rnd.nextInt(nR))
    val g  = Array.fill(nS)(rnd.nextDouble())
    // denormalized: walk every joined tuple
    val direct = new Array[Double](dR)
    (0 until nS).foreach(i => Vec.axpy(g(i), xr(fk(i)), direct))
    // factorized: group γ by fk, then one axpy per R tuple
    val gSum = new Array[Double](nR)
    (0 until nS).foreach(i => gSum(fk(i)) += g(i))
    val grouped = new Array[Double](dR)
    (0 until nR).foreach(r => Vec.axpy(gSum(r), xr(r), grouped))
    assert(Vec.maxAbsDiff(direct, grouped) < 1e-9)
  }

  test("grouped-by-FK UR block: Σ γ x_S x_Rᵀ == Σ_r (Σ_{fk=r} γ x_S) x_rᵀ") {
    val rnd = new scala.util.Random(12)
    val nR = 6; val nS = 150; val dS = 3; val dR = 4
    val xr = Array.fill(nR)(Array.fill(dR)(rnd.nextGaussian()))
    val xs = Array.fill(nS)(Array.fill(dS)(rnd.nextGaussian()))
    val fk = Array.fill(nS)(rnd.nextInt(nR))
    val g  = Array.fill(nS)(rnd.nextDouble())
    val direct = Mat.zeros(dS, dR)
    (0 until nS).foreach(i => direct.addOuter(g(i), xs(i), xr(fk(i))))
    val sgx = Array.fill(nR)(new Array[Double](dS))
    (0 until nS).foreach(i => Vec.axpy(g(i), xs(i), sgx(fk(i))))
    val grouped = Mat.zeros(dS, dR)
    (0 until nR).foreach(r => grouped.addOuter(1.0, sgx(r), xr(r)))
    assert(direct.maxAbsDiff(grouped) < 1e-9)
  }

  test("Eq. 19: multi-way blocked quadratic form equals the full form (q=2)") {
    check(Gen.zip(Gen.choose(1, 4), Gen.choose(1, 4), Gen.choose(1, 4), Gen.choose(0L, 500L))) {
      case (d0, d1, d2, seed) =>
        val d = d0 + d1 + d2
        val rnd = new scala.util.Random(seed)
        val raw = new Mat(d, d, Array.fill(d * d)(rnd.nextGaussian()))
        val ik = raw.mm(raw.transpose)
        val pd = Array.fill(d)(rnd.nextGaussian())
        val offs = Array(0, d0, d0 + d1, d)
        var sum = 0.0
        for (a <- 0 until 3; b <- 0 until 3) {
          val iab = ik.block(offs(a), offs(a + 1), offs(b), offs(b + 1))
          sum += iab.bilinear(Vec.slice(pd, offs(a), offs(a + 1)),
                              Vec.slice(pd, offs(b), offs(b + 1)))
        }
        assert(math.abs(sum - ik.quadForm(pd)) < 1e-7)
    }
  }

  test("multi-way cross term: pd_mᵀ I_mi pd_i == x_mᵀ t − μ_mᵀ t with t = I_mi pd_i") {
    check(Gen.zip(Gen.choose(1, 6), Gen.choose(1, 6), Gen.choose(0L, 500L))) {
      case (dm, di, seed) =>
        val rnd = new scala.util.Random(seed)
        val iMI = new Mat(dm, di, Array.fill(dm * di)(rnd.nextGaussian()))
        val xm = Array.fill(dm)(rnd.nextGaussian() * 4); val muM = Array.fill(dm)(rnd.nextGaussian() * 4)
        val xi = Array.fill(di)(rnd.nextGaussian() * 4); val muI = Array.fill(di)(rnd.nextGaussian() * 4)
        val t = iMI.mv(Vec.sub(xi, muI)) // stored once per Ri tuple, with μ_mᵀt
        val direct = iMI.bilinear(Vec.sub(xm, muM), Vec.sub(xi, muI))
        assert(math.abs(direct - (Vec.dot(xm, t) - Vec.dot(muM, t))) < 1e-9 * (1 + math.abs(direct)))
    }
  }

  test("multi-way factorized form with precomputed t-vectors matches (q=2)") {
    val rnd = new scala.util.Random(21)
    val dS = 2; val d1 = 3; val d2 = 4; val d = dS + d1 + d2
    val raw = new Mat(d, d, Array.fill(d * d)(rnd.nextGaussian()))
    val ik = raw.mm(raw.transpose)
    val pd = Array.fill(d)(rnd.nextGaussian())
    val pds = Vec.slice(pd, 0, dS)
    val pd1 = Vec.slice(pd, dS, dS + d1)
    val pd2 = Vec.slice(pd, dS + d1, d)
    // reusable pieces of the blocked form, one set per tuple
    val v1 = ik.block(0, dS, dS, dS + d1).mv(pd1)
    val v2 = ik.block(0, dS, dS + d1, d).mv(pd2)
    val c1 = ik.block(dS, dS + d1, dS, dS + d1).quadForm(pd1)
    val c2 = ik.block(dS + d1, d, dS + d1, d).quadForm(pd2)
    val t12 = ik.block(dS, dS + d1, dS + d1, d).mv(pd2) // I_12 · pd2
    val fact = ik.block(0, dS, 0, dS).quadForm(pds) +
      2 * Vec.dot(pds, v1) + 2 * Vec.dot(pds, v2) + c1 + c2 + 2 * Vec.dot(pd1, t12)
    assert(math.abs(fact - ik.quadForm(pd)) < 1e-8)
  }

  test("factor basis: per-tuple blocks plus the per-row solve give (x−μ)ᵀΣ⁻¹(x−μ) (q = 1, 2, 3)") {
    val gen = for {
      q    <- Gen.choose(1, 3)
      dS   <- Gen.oneOf(1, 1, 2, 3)
      dims <- Gen.listOfN(q, Gen.choose(1, 3))
      k    <- Gen.choose(1, 2)
      seed <- Gen.choose(0L, 1000L)
    } yield (dS, dims.toArray, k, seed)
    check(gen, n = 30) { case (dS, dims, k, seed) =>
      val rnd = new scala.util.Random(seed)
      val d = dS + dims.sum
      def spd(): Mat = {
        val b = new Mat(d, d, Array.fill(d * d)(rnd.nextGaussian()))
        val a = b.mm(b.transpose)
        (0 until d).foreach(i => a(i, i) += 1.0)
        a
      }
      val model = GmmModel(Array.fill(k)(1.0 / k), Array.fill(k)(Array.fill(d)(rnd.nextGaussian())),
                           Array.fill(k)(spd()))
      val nR = 3
      val rels = RRel.all(dims.toSeq.map(di =>
        Array.tabulate(nR)(p => (p + 1L, Array.fill(di)(rnd.nextGaussian() * 2)))))
      val lay = new PreLayout(k, dS, dims)
      val ordered = FGmmMulti.rFirst(model, dS)
      val chol = GmmComponentCache(ordered).chol
      val pre = FGmmMulti.precompute(rels, ordered.means, chol, lay)
      val inv = GmmComponentCache(model).inv
      val dR = lay.dR
      (0 until 4).foreach { _ =>
        val pos = Array.fill(dims.length)(rnd.nextInt(nR))
        val xs = Array.fill(dS)(rnd.nextGaussian() * 2)
        val x = Vec.concat(xs +: dims.indices.map(i =>
          Vec.slice(rels(i).x, pos(i) * dims(i), (pos(i) + 1) * dims(i))): _*)
        (0 until k).foreach { kk =>
          // the S-pass's per-row arithmetic on the precomputed blocks
          val z = new Array[Double](d)
          (0 until dS).foreach(j => z(dR + j) = xs(j) - model.means(kk)(j))
          var v = 0.0
          dims.indices.foreach { b =>
            val o = lay.blk(b, pos(b), kk)
            (0 until dS).foreach(j => z(dR + j) += pre(b)(o + j))
            v += pre(b)(o + dS)
            val c = lay.rOff(b)
            (0 until b).foreach(m => v += 2 * Vec.dot(pre(m), lay.blk(m, pos(m), kk) + lay.zeta(m, c),
                                                     pre(b), o + dS + 1, dR - c))
          }
          val quad = v + chol(kk).forward(z, dR, d)
          val direct = inv(kk).quadForm(Vec.sub(x, model.means(kk)))
          assert(math.abs(quad - direct) <= 1e-8 * direct, s"k=$kk: $quad vs $direct")
        }
      }
    }
  }
}
