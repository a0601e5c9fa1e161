include Estima_json.Json
