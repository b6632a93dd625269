package repro.paging

import repro.core.{AccessTracer, PrunedCsr}

/** LRU page-cache simulator — the Table 6 substitute for the paper's
  * cgroups-plus-SSD-swap experiment (see DESIGN.md §4, row T6).
  *
  * The paper restricts NE++'s process memory and counts *hard page faults*
  * while the kernel swaps the column array to an SSD. This container has no
  * cgroup/swap control, so we model exactly that mechanism: every
  * column-array access (reported by [[repro.core.PrunedCsr]]'s tracer hook)
  * touches a 4 KiB page, a resident set holds at most `residentPages`
  * pages in LRU order, and an access to a non-resident page counts as a
  * hard fault. Modelled runtime = measured in-memory runtime + faults ×
  * SSD 4K-read latency. Both the fault count and the runtime then explode
  * as the limit shrinks — the paper's observed shape — while HEP at τ=1
  * fits the same budget natively with zero faults.
  *
  * Entry indices are converted to byte offsets with the paper's
  * `b_id = 4` accounting so the page arithmetic matches Section 4.2.
  *
  * @param residentPages maximum resident 4 KiB pages (≥ 1)
  */
final class PagingSimulator(val residentPages: Int) extends AccessTracer {
  require(residentPages >= 1, s"need at least one resident page, got $residentPages")

  private val lru = new java.util.LinkedHashMap[Int, java.lang.Boolean](16, 0.75f, true) {
    override def removeEldestEntry(e: java.util.Map.Entry[Int, java.lang.Boolean]): Boolean =
      size() > residentPages
  }

  private var _accesses = 0L
  private var _faults = 0L

  override def onAccess(entryIndex: Int): Unit = {
    val page = (entryIndex.toLong * PrunedCsr.IdBytes / PagingSimulator.PageBytes).toInt
    _accesses += 1
    if (lru.get(page) == null) {
      _faults += 1
      lru.put(page, java.lang.Boolean.TRUE)
    }
  }

  /** Total column-array accesses observed. */
  def accesses: Long = _accesses

  /** Hard page faults (misses in the resident set), including cold faults. */
  def faults: Long = _faults
}

object PagingSimulator {

  /** Page size in bytes. */
  final val PageBytes = 4096

  /** Modelled SSD 4 KiB random-read latency (µs); the paper's setup swaps to
    * "an SSD for fast swapping".
    */
  final val SsdReadMicros = 60L

  /** Resident-page budget for the column array under a total process memory
    * limit: the fixed structures (index/size arrays, bitsets, heap — the
    * non-column terms of Section 4.2) are always resident; whatever is left
    * holds column-array pages.
    */
  def residentPagesFor(memLimitBytes: Long, fixedBytes: Long): Int =
    math.max(1L, (memLimitBytes - fixedBytes) / PageBytes).toInt

  /** Modelled wall-clock: measured compute time plus fault service time. */
  def modelledRuntimeMs(measuredMs: Long, faults: Long): Long =
    measuredMs + faults * SsdReadMicros / 1000L
}
