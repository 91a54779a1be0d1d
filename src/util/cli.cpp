#include "util/cli.hpp"

#include <cstdio>
#include <sstream>

#include "util/strings.hpp"

namespace qbp {

CliParser::CliParser(std::string program_name, std::string description)
    : program_(std::move(program_name)), description_(std::move(description)) {}

void CliParser::add_flag(std::string_view name, bool& target, std::string_view help) {
  options_.push_back({std::string(name), Kind::kFlag, &target, std::string(help),
                      target ? "true" : "false"});
}

void CliParser::add_int(std::string_view name, std::int64_t& target,
                        std::string_view help) {
  options_.push_back({std::string(name), Kind::kInt, &target, std::string(help),
                      std::to_string(target)});
}

void CliParser::add_int(std::string_view name, std::int32_t& target,
                        std::string_view help) {
  options_.push_back({std::string(name), Kind::kInt32, &target,
                      std::string(help), std::to_string(target)});
}

void CliParser::add_double(std::string_view name, double& target,
                           std::string_view help) {
  options_.push_back({std::string(name), Kind::kDouble, &target, std::string(help),
                      format_double(target, 3)});
}

void CliParser::add_string(std::string_view name, std::string& target,
                           std::string_view help) {
  options_.push_back(
      {std::string(name), Kind::kString, &target, std::string(help), target});
}

CliParser::Option* CliParser::find(std::string_view name) noexcept {
  for (auto& option : options_) {
    if (option.name == name) return &option;
  }
  return nullptr;
}

bool CliParser::assign(Option& option, std::string_view value) {
  switch (option.kind) {
    case Kind::kFlag: {
      if (value == "true" || value == "1") {
        *static_cast<bool*>(option.target) = true;
      } else if (value == "false" || value == "0") {
        *static_cast<bool*>(option.target) = false;
      } else {
        error_ = "invalid boolean for --" + option.name + ": '" +
                 std::string(value) + "'";
        return false;
      }
      return true;
    }
    case Kind::kInt:
    case Kind::kInt32: {
      long long parsed = 0;
      const bool narrow = option.kind == Kind::kInt32;
      if (!parse_int(value, parsed) ||
          (narrow && parsed != static_cast<std::int32_t>(parsed))) {
        error_ = "invalid integer for --" + option.name + ": '" +
                 std::string(value) + "'";
        return false;
      }
      if (narrow) {
        *static_cast<std::int32_t*>(option.target) =
            static_cast<std::int32_t>(parsed);
      } else {
        *static_cast<std::int64_t*>(option.target) = parsed;
      }
      return true;
    }
    case Kind::kDouble: {
      double parsed = 0.0;
      if (!parse_double(value, parsed)) {
        error_ = "invalid number for --" + option.name + ": '" +
                 std::string(value) + "'";
        return false;
      }
      *static_cast<double*>(option.target) = parsed;
      return true;
    }
    case Kind::kString:
      *static_cast<std::string*>(option.target) = std::string(value);
      return true;
  }
  return false;
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (int k = 1; k < argc; ++k) {
    std::string_view arg = argv[k];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      return true;
    }
    if (!starts_with(arg, "--")) {
      positional_.emplace_back(arg);
      continue;
    }
    std::string_view body = arg.substr(2);
    std::string_view value;
    bool has_inline_value = false;
    if (const auto eq = body.find('='); eq != std::string_view::npos) {
      value = body.substr(eq + 1);
      body = body.substr(0, eq);
      has_inline_value = true;
    }
    Option* option = find(body);
    if (option == nullptr) {
      error_ = "unknown option --" + std::string(body);
      return false;
    }
    if (option->kind == Kind::kFlag && !has_inline_value) {
      *static_cast<bool*>(option->target) = true;
      continue;
    }
    if (!has_inline_value) {
      if (k + 1 >= argc) {
        error_ = "missing value for --" + option->name;
        return false;
      }
      value = argv[++k];
    }
    if (!assign(*option, value)) return false;
  }
  return true;
}

std::optional<int> CliParser::run(int argc, const char* const* argv) {
  if (!parse(argc, argv)) {
    std::fprintf(stderr, "%s\n%s", error_.c_str(), usage().c_str());
    return 1;
  }
  if (help_requested_) {
    std::printf("%s", usage().c_str());
    return 0;
  }
  return std::nullopt;
}

std::string CliParser::usage() const {
  std::ostringstream out;
  out << program_ << " — " << description_ << "\n\noptions:\n";
  for (const auto& option : options_) {
    out << "  --" << option.name;
    switch (option.kind) {
      case Kind::kFlag: break;
      case Kind::kInt:
      case Kind::kInt32: out << " <int>"; break;
      case Kind::kDouble: out << " <num>"; break;
      case Kind::kString: out << " <str>"; break;
    }
    out << "\n      " << option.help << " (default: " << option.default_text
        << ")\n";
  }
  return out.str();
}

}  // namespace qbp
