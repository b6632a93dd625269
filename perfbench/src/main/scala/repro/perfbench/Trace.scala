package repro.perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}

import scala.collection.mutable.ArrayBuffer

/** In-memory span recorder for the traced run. Spans are recorded around
  * calls into the program's public entry points, never inside the program,
  * and written out once at the end of the run.
  *
  * When disabled, [[span]] only evaluates its body, so the untraced run pays
  * nothing but one branch per call.
  */
final class Trace(val enabled: Boolean, val runId: String) {
  import Trace.Span

  private val spans = ArrayBuffer.empty[Span]
  private var open = List.empty[Int] // ids of the spans currently open, innermost first

  /** Time `body` as a span called `name`, child of the innermost open span. */
  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = spans.length
      val parent = open.headOption.getOrElse(-1)
      spans += Span(id, parent, name, System.nanoTime(), -1L)
      open = id :: open
      try body
      finally {
        open = open.tail
        spans(id) = spans(id).copy(endNs = System.nanoTime())
      }
    }

  /** Durations of all closed spans called `name`, in nanoseconds. */
  def durationsNs(name: String): Seq[Long] =
    spans.iterator.filter(s => s.name == name && s.endNs >= 0).map(_.durationNs).toSeq

  /** Self times of all closed spans called `name`: duration minus the time
    * covered by direct children (spans nest and never overlap).
    */
  def selfTimesNs(name: String): Seq[Long] = {
    val childNs = new Array[Long](spans.length)
    spans.foreach(s => if (s.parent >= 0 && s.endNs >= 0) childNs(s.parent) += s.durationNs)
    spans.iterator.filter(s => s.name == name && s.endNs >= 0)
      .map(s => s.durationNs - childNs(s.id)).toSeq
  }

  /** Write every span as one JSON object per line. */
  def write(file: Path): Unit = {
    val t0 = spans.headOption.map(_.startNs).getOrElse(0L)
    val lines = spans.map { s =>
      s"""{"run":"$runId","id":${s.id},"parent":${s.parent},"name":"${s.name}",""" +
        s""""start_ns":${s.startNs - t0},"end_ns":${s.endNs - t0}}"""
    }
    Files.createDirectories(file.getParent)
    Files.write(file, (lines.mkString("\n") + "\n").getBytes(StandardCharsets.UTF_8))
  }
}

object Trace {
  /** One timed layer call; `parent` is -1 for a root span. */
  final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long) {
    def durationNs: Long = endNs - startNs
  }
}
