package repro.core

/** Result of a k-way edge partitioning run.
  *
  * @param k                number of partitions
  * @param pids             partition id per edge, aligned with
  *                         [[GraphData.src]]/[[GraphData.dst]] edge ids
  * @param partitionerName  human-readable algorithm name (e.g. "HEP-10")
  * @param buildMillis      wall-clock partitioning time, including any
  *                         graph-representation build the algorithm needs
  * @param memoryModelBytes byte footprint of the algorithm's data structures
  *                         under the paper's Section 4.2 memory model, when
  *                         the algorithm reports one
  */
final case class PartitionResult(
    k: Int,
    pids: Array[Int],
    partitionerName: String,
    buildMillis: Long,
    memoryModelBytes: Option[Long] = None,
)

/** Common interface of every edge partitioner in this repo (HEP and all
  * baselines). Implementations are deterministic given `(g, k)`.
  */
trait EdgePartitioner {
  def name: String

  /** Partition the `nE` edges of `g` into `k ≥ 1` parts (checked here). */
  final def partition(g: GraphData, k: Int): PartitionResult = {
    require(k >= 1, s"$name: k must be >= 1, got $k")
    compute(g, k)
  }

  /** The algorithm behind [[partition]], called with `k ≥ 1`. */
  protected def compute(g: GraphData, k: Int): PartitionResult
}

object Partitioners {

  /** The balancing constraint `α` of every capacity-bounded partitioner
    * (the paper's `α = 1.05`, Appendix A).
    */
  final val Alpha = 1.05

  /** Edge capacity of one of `k` partitions, `ceil(α * |E| / k)`. */
  def capacity(g: GraphData, k: Int): Long = math.ceil(Alpha * g.nE / k.toDouble).toLong

  /** Validity check used by every test: each edge assigned exactly once to a
    * partition in `[0, k)`. Throws with a diagnostic on violation.
    */
  def validate(g: GraphData, res: PartitionResult): Unit = {
    require(res.pids.length == g.nE,
      s"${res.partitionerName}: ${res.pids.length} assignments for ${g.nE} edges")
    var e = 0
    while (e < g.nE) {
      val p = res.pids(e)
      require(p >= 0 && p < res.k,
        s"${res.partitionerName}: edge $e (${g.src(e)},${g.dst(e)}) has pid $p outside [0,${res.k})")
      e += 1
    }
  }

  /** Edge count per partition. */
  def loads(res: PartitionResult): Array[Long] = {
    val l = new Array[Long](res.k)
    var e = 0
    while (e < res.pids.length) { l(res.pids(e)) += 1; e += 1 }
    l
  }

  /** Achieved balancing factor `alpha = max_i |p_i| * k / |E|`. */
  def alpha(res: PartitionResult): Double = {
    val l = loads(res)
    if (res.pids.isEmpty) 1.0 else l.max.toDouble * res.k / res.pids.length
  }

  /** Replication factor computed on the driver (the Spark/DuckDB-checked
    * version lives in [[Metrics]]): `(1/|V|) * Σ_i |V(p_i)|`.
    */
  def replicationFactor(g: GraphData, res: PartitionResult): Double = {
    val seen = Array.fill(res.k)(new DenseBitset(g.nV))
    var e = 0
    while (e < g.nE) {
      val p = res.pids(e)
      seen(p).set(g.src(e)); seen(p).set(g.dst(e))
      e += 1
    }
    var total = 0L
    var i = 0
    while (i < res.k) { total += seen(i).cardinality; i += 1 }
    if (g.nV == 0) 0.0 else total.toDouble / g.nV
  }
}
