#include "core/args.h"

#include <charconv>

namespace bismark {

ArgParser::ArgParser(std::string program_description)
    : description_(std::move(program_description)) {}

void ArgParser::add_flag(const std::string& name, const std::string& help) {
  specs_[name] = Spec{help, true, std::nullopt};
  declaration_order_.push_back(name);
}

void ArgParser::add_option(const std::string& name, const std::string& help,
                           std::optional<std::string> default_value) {
  specs_[name] = Spec{help, false, std::move(default_value)};
  declaration_order_.push_back(name);
}

bool ArgParser::parse(const std::vector<std::string>& args) {
  values_.clear();
  positional_.clear();
  error_.clear();

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string name = arg.substr(2);
    std::optional<std::string> inline_value;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      inline_value = name.substr(eq + 1);
      name = name.substr(0, eq);
    }
    const auto it = specs_.find(name);
    if (it == specs_.end()) {
      error_ = "unknown option --" + name;
      return false;
    }
    if (it->second.is_flag) {
      if (inline_value) {
        error_ = "flag --" + name + " does not take a value";
        return false;
      }
      values_[name] = "true";
    } else if (inline_value) {
      values_[name] = *inline_value;
    } else {
      if (i + 1 >= args.size()) {
        error_ = "option --" + name + " requires a value";
        return false;
      }
      values_[name] = args[++i];
    }
  }
  return true;
}

bool ArgParser::parse(int argc, char** argv, int skip) {
  std::vector<std::string> args;
  for (int i = skip; i < argc; ++i) args.emplace_back(argv[i]);
  return parse(args);
}

bool ArgParser::has(const std::string& name) const { return values_.contains(name); }

std::vector<std::string> ArgParser::given() const {
  std::vector<std::string> names;
  for (const auto& [name, value] : values_) names.push_back(name);
  return names;
}

std::optional<std::string> ArgParser::get(const std::string& name) const {
  if (const auto it = values_.find(name); it != values_.end()) return it->second;
  if (const auto it = specs_.find(name); it != specs_.end()) return it->second.default_value;
  return std::nullopt;
}

std::string ArgParser::get_or(const std::string& name, const std::string& fallback) const {
  return get(name).value_or(fallback);
}

std::optional<std::int64_t> ArgParser::parse_int(const std::string& name) const {
  const auto value = get(name);
  if (!value) return std::nullopt;
  std::int64_t out{};
  const char* begin = value->data();
  const char* end = begin + value->size();
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return out;
}

std::optional<double> ArgParser::parse_double(const std::string& name) const {
  const auto value = get(name);
  if (!value) return std::nullopt;
  try {
    std::size_t pos = 0;
    const double out = std::stod(*value, &pos);
    if (pos != value->size()) return std::nullopt;
    return out;
  } catch (...) {
    return std::nullopt;
  }
}

std::string ArgParser::help(const std::string& program_name) const {
  std::string out = description_ + "\n\nusage: " + program_name + " [options]\n\noptions:\n";
  for (const auto& name : declaration_order_) {
    const Spec& spec = specs_.at(name);
    out += "  --" + name;
    if (!spec.is_flag) {
      out += " <value>";
      if (spec.default_value) out += " (default: " + *spec.default_value + ")";
    }
    out += "\n      " + spec.help + "\n";
  }
  return out;
}

}  // namespace bismark
