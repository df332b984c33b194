package repro.core.model

import java.util.Comparator

/** One attribute of a [[LocalInstance]], dictionary-encoded (column-store
  * style): `dict(c)` is the value of code `c`, and `src(i)` / `tgt(j)` are
  * the codes of the i-th source / j-th target record. Source and target
  * share the dictionary, so two cells hold equal values exactly when they
  * hold equal codes.
  *
  * The dictionary is sorted by `String.compareTo`, so code order is value
  * order. `null` is a value of its own, equal only to itself and ordered
  * before every string; it never shares a code with the string `"null"`.
  */
final class EncodedAttr private (
    val dict: Array[String],
    val src: Array[Int],
    val tgt: Array[Int],
    val srcDistinct: Int,
) extends Serializable {

  /** Number of dictionary codes. */
  def size: Int = dict.length

  /** Code of a value, or −1 if no record holds it. */
  def codeOf(v: String): Int = {
    val i = java.util.Arrays.binarySearch(dict, v, EncodedAttr.ValueOrder)
    if (i >= 0) i else -1
  }
}

object EncodedAttr {

  /** `String.compareTo` with `null` first. */
  val ValueOrder: Comparator[String] = (x: String, y: String) =>
    if (x eq y) 0 else if (x eq null) -1 else if (y eq null) 1 else x.compareTo(y)

  /** Encode attribute `a` of the given rows. */
  def apply(source: Array[Array[String]], target: Array[Array[String]], a: Int): EncodedAttr = {
    // Number values in order of first sighting, then renumber them by value.
    val index = new java.util.HashMap[String, Integer]()
    val values = new java.util.ArrayList[String]()
    def firstSeen(v: String): Int = {
      val known = index.get(v)
      if (known != null) known.intValue
      else {
        index.put(v, values.size)
        values.add(v)
        values.size - 1
      }
    }
    val src = source.map(r => firstSeen(r(a)))
    val srcDistinct = values.size
    val tgt = target.map(r => firstSeen(r(a)))
    val byValue = Array.tabulate[Integer](values.size)(Integer.valueOf)
    java.util.Arrays.sort(byValue, (x: Integer, y: Integer) => ValueOrder.compare(values.get(x), values.get(y)))
    val code = new Array[Int](byValue.length)
    byValue.indices.foreach(c => code(byValue(c)) = c)
    new EncodedAttr(byValue.map(values.get(_)), src.map(code), tgt.map(code), srcDistinct)
  }
}

/** A map from the codes of one attribute's source values to codes: the
  * image of each value under some function. An image outside the
  * dictionary has the code `size`, one past the last, so it never equals a
  * target code; blocking and costing keep a slot for it.
  */
trait CodeMap {
  def apply(c: Int): Int
}

/** An [[AttrFunc]] applied to the codes of one attribute: `apply(c)` is the
  * code of `f(dict(c))`. `f` runs at most once per distinct source code,
  * when the code is first asked for. An output found in the dictionary gets
  * its dictionary code; every other output gets `attr.size`. Such an output
  * matches no value of the instance, so it never equals a target code.
  *
  * A table only grows: a code once filled keeps its output, so one table
  * can serve every call that applies `f` to the attribute (a search run
  * keeps one per candidate, see `repro.core.search.InducedCandidates`).
  */
final class CodeTable(attr: EncodedAttr, val f: AttrFunc) extends CodeMap {
  private val identity = f.isIdentity
  private val table = if (identity) null else new Array[Int](attr.size) // code + 1; 0 = not yet run

  def apply(c: Int): Int =
    if (identity) c
    else {
      val t = table(c)
      if (t != 0) t - 1
      else {
        val code = attr.codeOf(f(attr.dict(c)))
        val out = if (code >= 0) code else attr.size
        table(c) = out + 1
        out
      }
    }
}
