/**
 * @file
 * One field list per serialized struct, driving both JSON directions.
 *
 * A struct opts in by specializing JsonFields with one visit template
 * that names every field once:
 *
 *   template <> struct JsonFields<Point>
 *   {
 *       template <typename S, typename V>
 *       static void visit(S &p, V &v)
 *       {
 *           v("x", p.x);
 *           v.when(p.y != 0, "y", p.y); // written only when nonzero
 *       }
 *   };
 *
 * toJson() runs the list over a const object with a writer and
 * fromJson() over a mutable one with a reader, so a key can never be
 * spelled one way on write and another on read, and a field added to
 * the list travels both ways.  Reading is lenient: an absent key
 * keeps the member's current value, so reading into a
 * default-constructed struct leaves its defaults for missing keys.
 *
 * Member types: bool, integers (as JSON unsigned), floating point,
 * std::string, JsonValue (verbatim), enums with a JsonEnum
 * specialization (by name), std::vector and std::optional of those,
 * and structs with their own JsonFields.
 */

#ifndef SDBP_OBS_JSON_FIELDS_HH
#define SDBP_OBS_JSON_FIELDS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/json.hh"

namespace sdbp::obs
{

/** Field list of a serialized struct; see the file comment. */
template <typename T>
struct JsonFields;

/**
 * Name mapping of a serialized enum: a static `name(E)` returning a
 * string, and `static std::optional<E> parse(const std::string &)`.
 * An unknown name on read keeps the member's current value.
 */
template <typename E>
struct JsonEnum;

template <typename T>
JsonValue toJson(const T &value);

/** Read @p json into @p value; absent keys keep their value. */
template <typename T>
void fromJson(const JsonValue &json, T &value);

namespace detail
{

template <typename T>
inline constexpr bool kIsVector = false;
template <typename T, typename A>
inline constexpr bool kIsVector<std::vector<T, A>> = true;

template <typename T>
inline constexpr bool kIsOptional = false;
template <typename T>
inline constexpr bool kIsOptional<std::optional<T>> = true;

} // namespace detail

/** Visitor of toJson(): collects the listed fields into an object. */
class JsonWriter
{
  public:
    /** An empty optional writes no key. */
    template <typename T>
    void
    operator()(const char *key, const T &member)
    {
        if constexpr (detail::kIsOptional<T>) {
            if (member)
                out_.set(key, toJson(*member));
        } else {
            out_.set(key, toJson(member));
        }
    }

    /** Write @p member only when @p cond holds. */
    template <typename T>
    void
    when(bool cond, const char *key, const T &member)
    {
        if (cond)
            (*this)(key, member);
    }

    JsonValue take() { return std::move(out_); }

  private:
    JsonValue out_ = JsonValue::object();
};

/** Visitor of fromJson(): assigns every listed field present. */
class JsonReader
{
  public:
    explicit JsonReader(const JsonValue &in) : in_(in) {}

    template <typename T>
    void
    operator()(const char *key, T &member)
    {
        const JsonValue *f = in_.find(key);
        if (!f)
            return;
        if constexpr (detail::kIsOptional<T>) {
            member.emplace();
            fromJson(*f, *member);
        } else {
            fromJson(*f, member);
        }
    }

    /** The write condition does not apply: present keys are read. */
    template <typename T>
    void
    when(bool, const char *key, T &member)
    {
        (*this)(key, member);
    }

  private:
    const JsonValue &in_;
};

template <typename T>
JsonValue
toJson(const T &value)
{
    if constexpr (std::is_same_v<T, bool>) {
        return JsonValue(value);
    } else if constexpr (std::is_enum_v<T>) {
        return JsonValue(std::string(JsonEnum<T>::name(value)));
    } else if constexpr (std::is_integral_v<T>) {
        return JsonValue(static_cast<std::uint64_t>(value));
    } else if constexpr (std::is_floating_point_v<T>) {
        return JsonValue(static_cast<double>(value));
    } else if constexpr (std::is_same_v<T, std::string> ||
                         std::is_same_v<T, JsonValue>) {
        return value;
    } else if constexpr (detail::kIsVector<T>) {
        JsonValue arr = JsonValue::array();
        for (const auto &item : value)
            arr.push(toJson(item));
        return arr;
    } else {
        JsonWriter w;
        JsonFields<T>::visit(value, w);
        return w.take();
    }
}

template <typename T>
void
fromJson(const JsonValue &json, T &value)
{
    if constexpr (std::is_same_v<T, bool>) {
        value = json.asBool();
    } else if constexpr (std::is_enum_v<T>) {
        if (const auto parsed = JsonEnum<T>::parse(json.asString()))
            value = *parsed;
    } else if constexpr (std::is_integral_v<T>) {
        value = static_cast<T>(json.asUInt());
    } else if constexpr (std::is_floating_point_v<T>) {
        value = static_cast<T>(json.asNumber());
    } else if constexpr (std::is_same_v<T, std::string>) {
        value = json.asString();
    } else if constexpr (std::is_same_v<T, JsonValue>) {
        value = json;
    } else if constexpr (detail::kIsVector<T>) {
        value.clear();
        if (!json.isArray())
            return;
        value.resize(json.size());
        for (std::size_t i = 0; i < json.size(); ++i)
            fromJson(json.at(i), value[i]);
    } else {
        JsonReader r(json);
        JsonFields<T>::visit(value, r);
    }
}

/** fromJson into a default-constructed T. */
template <typename T>
T
fromJson(const JsonValue &json)
{
    T value{};
    fromJson(json, value);
    return value;
}

} // namespace sdbp::obs

#endif // SDBP_OBS_JSON_FIELDS_HH
