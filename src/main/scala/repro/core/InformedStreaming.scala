package repro.core

/** The HDRF scoring function of Petroni et al. (CIKM'15), shared by HEP's
  * informed streaming phase (Section 3.3) and the standalone HDRF baseline.
  *
  * `score(e=(u,v), p) = C_REP + C_BAL` with
  *  - `C_REP = g(u) + g(v)`, `g(x) = 1 + (1 - θ(x))` if x is already
  *    replicated on p else 0, `θ(u) = d(u) / (d(u) + d(v))`;
  *  - `C_BAL = λ * (maxLoad - load(p)) / (ε + maxLoad - minLoad)`.
  *
  * `λ` is fixed at [[Lambda]], the authors' recommended value (paper
  * Appendix A).
  */
object HdrfScoring {
  /** The HDRF balance weight `λ`. */
  final val Lambda = 1.1
  private val Eps = 1e-3

  def score(
      degU: Long, degV: Long,
      replicatedU: Boolean, replicatedV: Boolean,
      load: Long, minLoad: Long, maxLoad: Long,
  ): Double = {
    val thetaU = if (degU + degV == 0) 0.5 else degU.toDouble / (degU + degV)
    val thetaV = 1.0 - thetaU
    val gU = if (replicatedU) 1.0 + (1.0 - thetaU) else 0.0
    val gV = if (replicatedV) 1.0 + (1.0 - thetaV) else 0.0
    val bal = Lambda * (maxLoad - load).toDouble / (Eps + (maxLoad - minLoad).toDouble)
    gU + gV + bal
  }
}

/** Informed stateful streaming partitioning (Algorithm 4): places the h2h
  * edge stream with HDRF scoring, *seeded* with the NE++ phase's state — the
  * true vertex degrees from graph building, the per-partition replica sets
  * and the per-partition edge loads. This is how HEP escapes the
  * "uninformed assignment problem" of cold-started streaming partitioners.
  *
  * Mutates `pids`, `loads`, `replicas` in place, honouring the balancing
  * constraint `|p_i| <= ceil(α * |E| / k)` ([[Partitioners.capacity]];
  * candidates at capacity are skipped; if every partition is full the
  * least-loaded one is used).
  *
  * '''Exact candidate argmax.''' Each edge goes to the partition HDRF would
  * pick by scoring all `k` partitions and taking the first maximum, but at
  * most four partitions are scored. For an edge `(u, v)` the partitions
  * fall into four replica classes: holding both endpoints, only `u`, only
  * `v`, or neither.
  *
  *  - ''Class constant.'' Within a class, `HdrfScoring.score` is
  *    `c + bal(load)`. The replication term `c = g(u) + g(v)` is the same
  *    for every member (3, `2 - θ(u)`, `2 - θ(v)` and 0 for the four
  *    classes), and so are `maxLoad` and `minLoad` in
  *    `bal(load) = λ * (maxLoad - load) / (ε + maxLoad - minLoad)`.
  *  - ''Strict monotonicity.'' Loads are integers below `2^32` (`run`
  *    requires them below `2^31` on entry and adds one per edge), so
  *    `maxLoad - load` is exact in a double and every rounding step is
  *    monotone. With `λ = 1.1`, two loads differ by at least
  *    `λ / (ε + maxLoad - minLoad) >= 1.1 * 2^-32` in the balance term, far
  *    above the rounding error of `c + bal <= 4.1`. So within a class the
  *    score falls strictly with load, and the class's best members are
  *    exactly its least-loaded non-full ones.
  *  - ''Tie-break.'' Of those the full scan keeps the lowest `p`, and so
  *    does the class search. Comparing the (at most four) class winners by
  *    score, then by lower `p`, reproduces the full scan's first maximum bit
  *    for bit.
  *
  * Classes are searched in falling order of `c`. A class whose score at
  * `minLoad`, its best possible, is already below the best score found is
  * skipped; with `λ = 1.1` that rules out the "neither" class
  * whenever a partition holding both endpoints has room.
  *
  * To find a class winner cheaply, `run` transposes the replica bitsets
  * into one `ceil(k/64)`-word partition mask per vertex, so an edge reads
  * two masks instead of `k` bitsets. It keeps `maxLoad`, `minLoad` and the
  * set of partitions at `minLoad` up to date as loads grow, rescanning the
  * `k` loads only when that set empties, which happens at most once per
  * unit increase of `minLoad`. A class member at `minLoad` wins its class
  * outright; otherwise the class's bits are scanned for the least load
  * below capacity. If `minLoad` has reached capacity every partition is
  * full, and the fallback is the lowest partition at `minLoad`.
  *
  * The `replicas` bitsets are updated as before (two `set`s per edge), so
  * callers see the same state. The mask costs `|V| * ceil(k/64) * 8` bytes
  * per `run` call and is not built when there is nothing to stream.
  *
  * HEP streams with `run(csr)`, which reads `E_h2h` from the input edge
  * list in ascending edge-id order, so no list of h2h ids is held in
  * memory; `run(edgeIds)` streams an explicit list. Both run the same
  * placement loop over a buffer of edge ids: `run(csr)` gathers the h2h ids
  * of each block of [[InformedStreaming.GatherBlock]] edges into a fixed
  * buffer first, which keeps the scan's h2h test out of that loop.
  */
final class InformedStreaming(
    g: GraphData,
    k: Int,
    pids: Array[Int],
    loads: Array[Long],
    replicas: Array[DenseBitset],
) {
  require(k >= 1, s"k must be >= 1, got $k")
  require(loads.length == k && replicas.length == k && replicas.forall(_.n == g.nV),
    s"need $k loads and $k replica bitsets over [0, ${g.nV})")

  private val capacity: Long = Partitioners.capacity(g, k)
  private val words = (k + 63) >>> 6

  private val lastWord = if ((k & 63) == 0) -1L else (1L << (k & 63)) - 1L

  private var fallbacks = 0L

  /** Edges placed by the all-full fallback (every partition at capacity),
    * summed over all [[run]] calls. Zero while `loads` count only edges of
    * `g`, as on HEP's path (see [[Partitioners.capacity]]).
    */
  def allFullFallbacks: Long = fallbacks

  /** Stream the given edge ids in the given order. */
  def run(edgeIds: Array[Int]): Unit =
    if (edgeIds.nonEmpty) place(new Pass, edgeIds, edgeIds.length)

  /** Stream the h2h edges of `csr` (both endpoints high-degree) in ascending
    * edge-id order, read straight from the input edge list: the order, and
    * so the result, of `run(csr.h2hEdgeIds)` without building that list.
    */
  def run(csr: PrunedCsr): Unit = {
    require(csr.g eq g, "the CSR was built from a different GraphData")
    if (csr.h2hCount > 0) {
      val pass = new Pass
      val high = csr.high
      val block = new Array[Int](math.min(g.nE, InformedStreaming.GatherBlock))
      var e = 0
      while (e < g.nE) {
        val end = math.min(g.nE, e + block.length)
        var n = 0
        while (e < end) {
          block(n) = e // kept only if the edge is h2h; `&` leaves one branch per edge
          if (high(g.src(e)) & high(g.dst(e))) n += 1
          e += 1
        }
        place(pass, block, n)
      }
    }
  }

  /** State of one streaming pass, built from `loads` and `replicas` when it
    * starts: the partition masks, `minLoad`, `maxLoad` and the partitions at
    * `minLoad`.
    */
  private final class Pass {
    require(loads.forall(l => l >= 0 && l <= Int.MaxValue),
      "partition loads must lie in [0, 2^31) before streaming")
    val mask = transposeReplicas()
    val atMin = new Array[Long](words)
    var minLoad = collectMin(atMin)
    var atMinCount = popCount(atMin)
    var maxLoad = loads.max
  }

  /** Place edges `ids(0 until n)` in order, each on the partition the full
    * HDRF scan would pick. The pass state is kept in locals while the loop
    * runs and written back at the end.
    */
  private def place(pass: Pass, ids: Array[Int], n: Int): Unit = {
    val deg = g.degrees
    val mask = pass.mask
    val atMin = pass.atMin
    var minLoad = pass.minLoad
    var atMinCount = pass.atMinCount
    var maxLoad = pass.maxLoad

    var i = 0
    while (i < n) {
      val eid = ids(i)
      val u = g.src(eid); val v = g.dst(eid)
      val du = deg(u).toLong; val dv = deg(v).toLong
      val uBase = u * words; val vBase = v * words
      var best = -1
      if (minLoad >= capacity) { // every partition at capacity: fall back to least loaded
        best = lowestBit(atMin)
        fallbacks += 1
      } else {
        // Classes by falling replication term: both, only v, only u, neither.
        // One whose best possible score (at minLoad) is below the best so
        // far cannot win and is not searched.
        var bestScore = Double.NegativeInfinity
        var c = 3
        while (c >= 0) {
          val inU = (c & 1) != 0; val inV = (c & 2) != 0
          if (best < 0 ||
              HdrfScoring.score(du, dv, inU, inV, minLoad, minLoad, maxLoad) >= bestScore) {
            val p = classWinner(c, mask, uBase, vBase, atMin)
            if (p >= 0) {
              val s = HdrfScoring.score(du, dv, inU, inV, loads(p), minLoad, maxLoad)
              if (s > bestScore || (s == bestScore && p < best)) { bestScore = s; best = p }
            }
          }
          c -= 1
        }
      }
      require(pids(eid) < 0, s"edge $eid already assigned before streaming")
      pids(eid) = best
      val load = loads(best)
      loads(best) = load + 1
      if (load + 1 > maxLoad) maxLoad = load + 1
      if (load == minLoad) {
        atMin(best >>> 6) &= ~(1L << (best & 63))
        atMinCount -= 1
        if (atMinCount == 0) { minLoad = collectMin(atMin); atMinCount = popCount(atMin) }
      }
      replicas(best).set(u)
      replicas(best).set(v)
      val bit = 1L << (best & 63)
      mask(uBase + (best >>> 6)) |= bit
      mask(vBase + (best >>> 6)) |= bit
      i += 1
    }
    pass.minLoad = minLoad
    pass.atMinCount = atMinCount
    pass.maxLoad = maxLoad
  }

  /** Per-vertex partition masks: bit `p` of word `v * words + p / 64` is set
    * iff `replicas(p)` holds `v`. Built in `O(|V| * k / 64 + Σ|R(p)|)` from
    * the bitsets' words.
    */
  private def transposeReplicas(): Array[Long] = {
    require(g.nV.toLong * words <= Int.MaxValue - 8,
      s"partition masks for |V| = ${g.nV}, k = $k exceed one array")
    val mask = new Array[Long](g.nV * words)
    var p = 0
    while (p < k) {
      val r = replicas(p)
      val w0 = p >>> 6
      val bit = 1L << (p & 63)
      var w = 0
      while (w < r.wordCount) {
        var x = r.word(w)
        while (x != 0L) {
          val v = (w << 6) | java.lang.Long.numberOfTrailingZeros(x)
          mask(v * words + w0) |= bit
          x &= x - 1L
        }
        w += 1
      }
      p += 1
    }
    mask
  }

  /** Partitions of replica class `c` (bit 0: holds `u`, bit 1: holds `v`)
    * in word `w`, given the endpoints' mask words `mu` and `mv`.
    */
  private def classBits(c: Int, mu: Long, mv: Long, w: Int): Long = c match {
    case 0 => ~(mu | mv) & (if (w == words - 1) lastWord else -1L)
    case 1 => mu & ~mv
    case 2 => ~mu & mv
    case _ => mu & mv
  }

  /** Least-loaded non-full partition of replica class `c`, lowest `p` on
    * ties, or -1 if the class has none. Requires `minLoad < capacity`, so a
    * class member at `minLoad` wins outright; only otherwise are the class's
    * loads scanned.
    */
  private def classWinner(c: Int, mask: Array[Long], uBase: Int, vBase: Int,
                          atMin: Array[Long]): Int = {
    var w = 0
    while (w < words) {
      val x = classBits(c, mask(uBase + w), mask(vBase + w), w) & atMin(w)
      if (x != 0L) return (w << 6) | java.lang.Long.numberOfTrailingZeros(x)
      w += 1
    }
    var best = -1
    var bestLoad = capacity
    w = 0
    while (w < words) {
      var x = classBits(c, mask(uBase + w), mask(vBase + w), w)
      while (x != 0L) {
        val p = (w << 6) | java.lang.Long.numberOfTrailingZeros(x)
        val l = loads(p)
        if (l < bestLoad) { bestLoad = l; best = p }
        x &= x - 1L
      }
      w += 1
    }
    best
  }

  /** Fill `atMin` with the partitions at the minimum load; return that load. */
  private def collectMin(atMin: Array[Long]): Long = {
    var min = Long.MaxValue
    var p = 0
    while (p < k) { if (loads(p) < min) min = loads(p); p += 1 }
    java.util.Arrays.fill(atMin, 0L)
    p = 0
    while (p < k) {
      if (loads(p) == min) atMin(p >>> 6) |= 1L << (p & 63)
      p += 1
    }
    min
  }

  private def popCount(bits: Array[Long]): Int = {
    var c = 0; var w = 0
    while (w < bits.length) { c += java.lang.Long.bitCount(bits(w)); w += 1 }
    c
  }

  private def lowestBit(bits: Array[Long]): Int = {
    var w = 0
    while (bits(w) == 0L) w += 1
    (w << 6) | java.lang.Long.numberOfTrailingZeros(bits(w))
  }
}

object InformedStreaming {
  /** Edges scanned per block by `run(csr)`, and the size of its id buffer. */
  val GatherBlock = 4096
}
