package perfbench

/** Minimal JSON rendering for the benchmark's records. Maps keep insertion
  * order when built as a `ListMap`.
  */
object Json {

  def render(v: Any): String = v match {
    case null                  => "null"
    case s: String             => quote(s)
    case b: Boolean            => b.toString
    case i: Int                => i.toString
    case l: Long               => l.toString
    case d: Double             => number(d)
    case m: collection.Map[_, _] =>
      m.iterator.map { case (k, x) => quote(k.toString) + ": " + render(x) }.mkString("{", ", ", "}")
    case xs: Iterable[_]       => xs.iterator.map(render).mkString("[", ", ", "]")
    case other                 => quote(other.toString)
  }

  /** Doubles keep every digit the JVM prints; non-finite values become null. */
  private def number(d: Double): String =
    if (d.isNaN || d.isInfinite) "null"
    else if (d == math.rint(d) && math.abs(d) < 1e15) d.toLong.toString
    else d.toString

  private def quote(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"'          => sb ++= "\\\""
      case '\\'         => sb ++= "\\\\"
      case '\n'         => sb ++= "\\n"
      case c if c < ' ' => sb ++= f"\\u${c.toInt}%04x"
      case c            => sb += c
    }
    sb += '"'
    sb.result()
  }
}
