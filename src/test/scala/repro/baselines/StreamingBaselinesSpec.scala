package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.{PropHelper, TestGraphs}
import repro.core.{GraphData, Partitioners}

/** Validity + algorithm-specific behaviour of the streaming baselines
  * (HDRF, DBH, Greedy, Grid, Random).
  */
class StreamingBaselinesSpec extends AnyFunSuite with PropHelper {

  private val allStreaming = Seq(
    () => new Hdrf(), () => new Dbh(), () => new GreedyPartitioner(),
    () => new GridPartitioner(), () => new RandomStreaming())

  test("every streaming baseline produces a valid partitioning") {
    val g = TestGraphs.powerLaw(120, 500, gamma = 3.0, seed = 40)
    for (mk <- allStreaming; k <- Seq(2, 4, 9, 16)) {
      val res = mk().partition(g, k)
      Partitioners.validate(g, res)
    }
  }

  test("every streaming baseline is deterministic") {
    val g = TestGraphs.random(60, 240, seed = 41)
    allStreaming.foreach { mk =>
      val a = mk().partition(g, 4).pids.toSeq
      val b = mk().partition(g, 4).pids.toSeq
      assert(a == b, mk().name)
    }
  }

  test("DBH: edges sharing their unique lowest-degree endpoint are colocated") {
    val g = TestGraphs.star(20) // hub 0 has degree 20, each leaf degree 1
    val res = new Dbh().partition(g, 4)
    // each edge hashes its leaf ⇒ leaves spread over partitions, hub replicated
    val rf = Partitioners.replicationFactor(g, res)
    assert(rf > 1.0, "hub must be replicated")
    // every edge's pid must equal the hash of its leaf endpoint
    (0 until g.nE).foreach { e =>
      val leaf = if (g.degrees(g.src(e)) <= g.degrees(g.dst(e))) g.src(e) else g.dst(e)
      assert(res.pids(e) == Dbh.mix(leaf) % 4)
    }
  }

  test("DBH replicates hubs, not leaves") {
    val g = TestGraphs.powerLaw(200, 800, gamma = 3.2, seed = 42)
    val res = new Dbh().partition(g, 8)
    // leaves (degree 1) are never replicated: exactly one partition covers them
    val coverage = Array.fill(8)(scala.collection.mutable.Set.empty[Int])
    (0 until g.nE).foreach(e => {
      coverage(res.pids(e)) += g.src(e); coverage(res.pids(e)) += g.dst(e)
    })
    (0 until g.nV).filter(v => g.degrees(v) == 1).foreach { v =>
      assert(coverage.count(_.contains(v)) == 1, s"leaf $v replicated")
    }
  }

  test("Grid: rows() returns the largest divisor at most sqrt(k)") {
    assert(GridPartitioner.rows(16) == 4)
    assert(GridPartitioner.rows(12) == 3)
    assert(GridPartitioner.rows(7) == 1) // prime: degenerates to hashing
    assert(GridPartitioner.rows(1) == 1)
  }

  test("Grid: assigned partition is one of the two candidate cells") {
    val g = TestGraphs.random(50, 200, seed = 43)
    val k = 16
    val r = GridPartitioner.rows(k); val c = k / r
    val res = new GridPartitioner().partition(g, k)
    (0 until g.nE).foreach { e =>
      val u = g.src(e); val v = g.dst(e)
      val cands = Set((Dbh.mix(u) % r) * c + (Dbh.mix(v) % c),
                      (Dbh.mix(v) % r) * c + (Dbh.mix(u) % c))
      assert(cands.contains(res.pids(e)), s"edge $e")
    }
  }

  test("Greedy: an isolated edge pair is colocated") {
    // edges (0,1) then (1,2): vertex 1 already has a replica, so the second
    // edge must land on the same partition (case 2 of the heuristic).
    // k = 2 gives cap = ceil(1.05 * 2 / 2) = 2 edges per partition; any cap
    // below 2 would forbid colocation on a two-edge graph, a capacity
    // artifact rather than the heuristic.
    val g = GraphData.fromEdges(3, Seq((0, 1), (1, 2)))
    val res = new GreedyPartitioner().partition(g, 2)
    assert(res.pids(0) == res.pids(1))
  }

  test("Greedy achieves lower replication than Random on a community graph") {
    val g = TestGraphs.twoCliques(10)
    val rfGreedy = Partitioners.replicationFactor(g, new GreedyPartitioner().partition(g, 2))
    val rfRandom = Partitioners.replicationFactor(g, new RandomStreaming().partition(g, 2))
    assert(rfGreedy <= rfRandom)
  }

  test("HDRF produces balanced partitions within alpha") {
    val g = TestGraphs.powerLaw(150, 600, gamma = 3.0, seed = 44)
    val res = new Hdrf().partition(g, 8)
    assert(Partitioners.alpha(res) <= 1.05 + 8.0 / g.nE + 0.05)
  }

  test("HDRF beats DBH and Random on replication factor (power-law)") {
    val g = TestGraphs.powerLaw(300, 1500, gamma = 3.0, seed = 45)
    val k = 16
    val rfH = Partitioners.replicationFactor(g, new Hdrf().partition(g, k))
    val rfD = Partitioners.replicationFactor(g, new Dbh().partition(g, k))
    val rfR = Partitioners.replicationFactor(g, new RandomStreaming().partition(g, k))
    assert(rfH < rfD, s"HDRF $rfH vs DBH $rfD")
    assert(rfH < rfR, s"HDRF $rfH vs Random $rfR")
  }

  // HDRF and Greedy have no all-full fallback: from empty loads some
  // partition is always below capacity (see Partitioners.capacity)
  test("Random streaming respects the balancing capacity") {
    val g = TestGraphs.random(100, 500, seed = 46)
    val capped = Seq(() => new RandomStreaming(), () => new Hdrf(), () => new GreedyPartitioner())
    for (mk <- capped; k <- Seq(1, 2, 7, 32, g.nE + 3)) {
      val res = mk().partition(g, k)
      Partitioners.validate(g, res)
      val cap = Partitioners.capacity(g, k)
      assert(Partitioners.loads(res).forall(_ <= cap), s"${res.partitionerName} k=$k cap=$cap")
      assert(Partitioners.alpha(res) <= 1.05 + k.toDouble / g.nE + 0.05,
        s"${res.partitionerName} k=$k")
    }
  }

  test("property: all streaming baselines valid on arbitrary graphs") {
    val gen = for {
      nV <- Gen.choose(10, 80)
      nE <- Gen.choose(5, nV * 3)
      k <- Gen.oneOf(2, 4, 6)
      seed <- Gen.choose(0L, 9999L)
      which <- Gen.choose(0, allStreaming.length - 1)
    } yield (nV, nE, k, seed, which)
    checkProp(Prop.forAll(gen) { case (nV, nE, k, seed, which) =>
      val g = TestGraphs.random(nV, nE, seed)
      val res = allStreaming(which)().partition(g, k)
      res.pids.forall(p => p >= 0 && p < k) && res.pids.length == g.nE
    }, minTests = 40)
  }
}
