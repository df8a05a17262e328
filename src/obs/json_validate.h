#ifndef SLICELINE_OBS_JSON_VALIDATE_H_
#define SLICELINE_OBS_JSON_VALIDATE_H_

#include <string>

namespace sliceline::obs {

/// Validates that `text` is exactly one strict (RFC 8259) JSON document
/// with nothing but whitespace after it. Returns the empty string when
/// valid, otherwise "<message> at byte <offset>". It runs ParseJson's reader
/// (obs/json_parse.h) without building the tree, so both give the same
/// verdict and message on every input and validation memory stays flat in
/// the document size. Shared by the json_validate CLI tool and the schema
/// tests, so "strict JSON" means the same thing everywhere.
std::string ValidateStrictJson(const std::string& text);

}  // namespace sliceline::obs

#endif  // SLICELINE_OBS_JSON_VALIDATE_H_
