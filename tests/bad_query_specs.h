// One table of malformed query fields, shared by the surfaces that parse
// query specs through ParseQuerySpec (service/batch.h): POST /v1/explain
// (test_server) and StreamMonitor (test_monitor). Each surface must
// reject every entry with an error that names the field.

#ifndef CAUSUMX_TESTS_BAD_QUERY_SPECS_H_
#define CAUSUMX_TESTS_BAD_QUERY_SPECS_H_

#include <string>

namespace causumx {

// One malformed query field. A member may write the spec's "avg"
// attribute as `{avg}`: the outcome is the one numeric column every
// surface's table has, so a "where" entry can test numeric parsing.
struct BadQuerySpec {
  const char* field;   // the field the error message must name
  const char* member;  // the malformed JSON member
};

inline constexpr BadQuerySpec kBadQuerySpecs[] = {
    {"k", "\"k\":0"},
    {"k", "\"k\":-1"},
    {"k", "\"k\":2.5"},
    {"k", "\"k\":1001"},
    {"num_threads", "\"num_threads\":-1"},
    {"num_threads", "\"num_threads\":2.5"},
    {"discover", "\"discover\":\"bogus\""},
    {"group_by", "\"group_by\":[]"},
    {"where", "\"where\":\"{avg}<35years\""},
    {"where", "\"where\":\"{avg}<abc\""},
    {"where", "\"where\":\"{avg}<1e999\""},
};

// The JSON object `{<members>,<bad.member>}`, where `members` are a valid
// spec's members without "group_by" (including `"avg":"<name>"`) and
// `group_by` is that spec's valid group_by member, left out when
// group_by is the field under test. `{avg}` in bad.member becomes <name>.
inline std::string BadSpecJson(const BadQuerySpec& bad,
                               const std::string& members,
                               const std::string& group_by) {
  const bool replaces_group_by = std::string(bad.field) == "group_by";
  std::string member = bad.member;
  const std::string slot = "{avg}";
  if (const size_t at = member.find(slot); at != std::string::npos) {
    const std::string key = "\"avg\":\"";
    const size_t begin = members.find(key) + key.size();
    member.replace(at, slot.size(),
                   members.substr(begin, members.find('"', begin) - begin));
  }
  return "{" + members + "," + (replaces_group_by ? "" : group_by + ",") +
         member + "}";
}

}  // namespace causumx

#endif  // CAUSUMX_TESTS_BAD_QUERY_SPECS_H_
