/**
 * @file
 * Field tables: one declaration per config record, from which its
 * equality, hash, validation and sweep axes (and the serving layer's
 * JSON codec) are derived.
 *
 * A Table lists a record's fields in wire order, one row each: wire
 * name, kind (integer, enum spelled as a string, or list of
 * sub-records), valid range and type-erased member access. Rows are
 * built from member pointers by intField / enumField / listField, which
 * check the range against the member type at compile time. A record
 * opts in with `static const fields::Table &fieldTable();` and gets
 * == / != through `using fields::operator==;` (and !=).
 */

#ifndef EQ_BASE_FIELDS_HH
#define EQ_BASE_FIELDS_HH

#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "base/fnv.hh"

namespace eq {
namespace fields {

enum class Kind : uint8_t { Int, Enum, List };

struct Table;

/** One row. The integer view of a field (get/set) is its value for
 *  Int, its spelling index for Enum and its length for List. */
struct Field {
    const char *name;
    Kind kind;
    int64_t lo, hi; ///< valid range of the integer view
    const char *const *spellings = nullptr; ///< Enum: hi + 1 names
    bool axis = true; ///< sweepable as a named integer axis
    int64_t (*get)(const void *rec) = nullptr;
    void (*set)(void *rec, int64_t v) = nullptr; ///< List: v defaults
    int64_t (*cap)(const void *rec) = nullptr; ///< Int: the get of the
                                               ///< row it must not exceed
    const Table *elem = nullptr;                 ///< List element rows
    void *(*at)(const void *rec, size_t i) = nullptr; ///< List element
};

/** A sweep axis that sets several fields at once (e.g. h = w). */
struct Composite {
    const char *name;
    int64_t lo, hi;
    void (*apply)(void *rec, int64_t v);
};

/** A record's rows (wire order) and its composite axes. Every `err`
 *  below is non-null; a failure names the field in it. */
struct Table {
    const char *what; ///< family name used in error messages
    std::vector<Field> fields;
    std::vector<Composite> composites = {};
};

const Field *find(const Table &t, const std::string &name);
bool equal(const Table &t, const void *a, const void *b);
uint64_t hash(const Table &t, const void *rec, uint64_t h = kFnvOffset);

/** The "<what> config field '<path><name>'" prefix of field errors. */
std::string fieldError(const Table &t, const std::string &path,
                       const char *name);
/** What @p f accepts, e.g. "in 1..8" or "one of WS, IS, OS (...)". */
std::string expected(const Field &f);
/** Check @p v against @p f's range. */
bool inRange(const Table &t, const Field &f, int64_t v,
             const std::string &path, std::string *err);
/** Every field in range and within its cap, recursively. */
bool validate(const Table &t, const void *rec, std::string *err,
              const std::string &path = "");

/** Set the axis @p name (an Int/Enum field or a composite) after a
 *  range check. Caps are left to validate(). */
bool applyAxis(const Table &t, void *rec, const std::string &name,
               int64_t v, std::string *err);

template <class T, class = decltype(T::fieldTable())>
bool
operator==(const T &a, const T &b)
{
    return equal(T::fieldTable(), &a, &b);
}

template <class T, class = decltype(T::fieldTable())>
bool
operator!=(const T &a, const T &b)
{
    return !equal(T::fieldTable(), &a, &b);
}

/** Typed access to the member @p P through a type-erased record. */
template <auto P> struct Member;
template <class R, class M, M R::*P> struct Member<P> {
    using Type = M;
    static const M &of(const void *r) { return static_cast<const R *>(r)->*P; }
    static M &of(void *r) { return static_cast<R *>(r)->*P; }
};

template <auto P>
int64_t
getInt(const void *r)
{
    return int64_t(Member<P>::of(r));
}

/** An integer member in [Lo, Hi], and optionally at most the integer
 *  member @p Cap of the same record (e.g. filter <= ifmap). */
template <auto P, int64_t Lo, int64_t Hi, auto Cap = nullptr>
Field
intField(const char *name)
{
    using A = Member<P>;
    using M = typename A::Type;
    static_assert(Lo <= Hi && Lo >= int64_t(std::numeric_limits<M>::min()) &&
                      uint64_t(Hi) <= uint64_t(std::numeric_limits<M>::max()),
                  "field range must fit the member type");
    Field f{name, Kind::Int, Lo, Hi};
    f.get = getInt<P>;
    f.set = [](void *r, int64_t v) { A::of(r) = M(v); };
    if constexpr (!std::is_null_pointer_v<decltype(Cap)>)
        f.cap = getInt<Cap>;
    return f;
}

/** An enum member, or a std::string member restricted to @p Names
 *  (not an axis: it has no integer form outside this table). @p Names
 *  spells every value, in enum order. */
template <auto P, auto &Names>
Field
enumField(const char *name)
{
    using A = Member<P>;
    using M = typename A::Type;
    constexpr int64_t n = int64_t(std::size(Names));
    Field f{name, Kind::Enum, 0, n - 1, Names};
    if constexpr (std::is_same_v<M, std::string>) {
        f.axis = false;
        f.get = [](const void *r) {
            int64_t i = 0;
            while (i < n && A::of(r) != Names[i])
                ++i;
            return i; // n when unknown: out of range
        };
        f.set = [](void *r, int64_t v) { A::of(r) = Names[v]; };
    } else {
        f.get = [](const void *r) { return static_cast<int64_t>(A::of(r)); };
        f.set = [](void *r, int64_t v) { A::of(r) = M(v); };
    }
    return f;
}

/** A composite axis's setter: both integer members take the value. */
template <auto A, auto B>
void
setBoth(void *r, int64_t v)
{
    Member<A>::of(r) = Member<B>::of(r) = typename Member<A>::Type(v);
}

template <auto P, int64_t Lo, int64_t Hi>
Field
listField(const char *name, const Table &elem)
{
    using A = Member<P>;
    Field f{name, Kind::List, Lo, Hi};
    f.axis = false;
    f.elem = &elem;
    f.get = [](const void *r) { return int64_t(A::of(r).size()); };
    f.set = [](void *r, int64_t v) { A::of(r).assign(size_t(v), {}); };
    f.at = [](const void *r, size_t i) -> void * {
        return const_cast<void *>(static_cast<const void *>(&A::of(r)[i]));
    };
    return f;
}

} // namespace fields
} // namespace eq

#endif // EQ_BASE_FIELDS_HH
