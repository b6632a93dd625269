package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.{PropHelper, TestGraphs}
import repro.core.Partitioners

/** NE (eager in-memory) and SNE (chunked streaming NE) baselines. */
class NeSneSpec extends AnyFunSuite with PropHelper {

  test("NE produces a valid partitioning") {
    val g = TestGraphs.powerLaw(150, 700, gamma = 3.0, seed = 50)
    for (k <- Seq(2, 4, 8)) Partitioners.validate(g, new NeBaseline().partition(g, k))
  }

  test("NE is deterministic") {
    val g = TestGraphs.random(60, 240, seed = 51)
    assert(new NeBaseline().partition(g, 4).pids.toSeq ==
           new NeBaseline().partition(g, 4).pids.toSeq)
  }

  test("NE reports the larger eager-bookkeeping memory model") {
    val g = TestGraphs.powerLaw(150, 700, gamma = 3.0, seed = 52)
    val neMem = new NeBaseline().partition(g, 8).memoryModelBytes.get
    val hepMem = new repro.core.Hep(1.0).partition(g, 8).memoryModelBytes.get
    assert(neMem > hepMem, s"NE $neMem must exceed HEP-1 $hepMem")
  }

  test("NE quality on a path graph is near-optimal") {
    val g = TestGraphs.path(60)
    val rf = Partitioners.replicationFactor(g, new NeBaseline().partition(g, 3))
    assert(rf <= (60.0 + 3) / 60)
  }

  test("SNE produces a valid partitioning") {
    val g = TestGraphs.powerLaw(150, 700, gamma = 3.0, seed = 53)
    for (k <- Seq(2, 4, 8)) Partitioners.validate(g, new Sne().partition(g, k))
  }

  test("SNE is deterministic") {
    val g = TestGraphs.random(60, 240, seed = 54)
    assert(new Sne().partition(g, 4).pids.toSeq == new Sne().partition(g, 4).pids.toSeq)
  }

  test("SNE with k = 1 assigns everything to partition 0") {
    val g = TestGraphs.random(20, 60, seed = 55)
    assert(new Sne().partition(g, 1).pids.forall(_ == 0))
  }

  test("SNE quality sits between NE and random hashing on a community graph") {
    val g = TestGraphs.twoCliques(14)
    val k = 2
    val rfNe = Partitioners.replicationFactor(g, new NeBaseline().partition(g, k))
    val rfSne = Partitioners.replicationFactor(g, new Sne().partition(g, k))
    val rfRnd = Partitioners.replicationFactor(g, new RandomStreaming().partition(g, k))
    assert(rfNe <= rfSne + 1e-9, s"NE $rfNe should not be worse than SNE $rfSne")
    assert(rfSne <= rfRnd + 1e-9, s"SNE $rfSne should not be worse than random $rfRnd")
  }

  test("property: NE and SNE are valid on arbitrary graphs") {
    val gen = for {
      nV <- Gen.choose(8, 60)
      nE <- Gen.choose(4, nV * 3)
      k <- Gen.oneOf(2, 3, 5)
      seed <- Gen.choose(0L, 9999L)
      sne <- Gen.oneOf(true, false)
    } yield (nV, nE, k, seed, sne)
    checkProp(Prop.forAll(gen) { case (nV, nE, k, seed, sne) =>
      val g = TestGraphs.random(nV, nE, seed)
      val algo = if (sne) new Sne() else new NeBaseline()
      val res = algo.partition(g, k)
      res.pids.forall(p => p >= 0 && p < k)
    }, minTests = 40)
  }
}
